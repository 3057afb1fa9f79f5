package colbatch

import "parajoin/internal/metrics"

// counters are the process-wide colbatch counters, registered in the
// metrics registry (scraped at /metrics). They aggregate across every
// payload path — exchange frames, spill segments, and wire results.
var counters = struct {
	batchesEncoded *metrics.Counter
	batchesDecoded *metrics.Counter
	bytesEncoded   *metrics.Counter
	bytesDecoded   *metrics.Counter
	bytesRaw       *metrics.Counter
	valuesRaw      *metrics.Counter
	valuesDict     *metrics.Counter
	valuesConst    *metrics.Counter
}{
	batchesEncoded: metrics.Default.Counter("parajoin_colbatch_batches_total",
		"Columnar batches processed.", metrics.Label{Name: "op", Value: "encode"}),
	batchesDecoded: metrics.Default.Counter("parajoin_colbatch_batches_total",
		"Columnar batches processed.", metrics.Label{Name: "op", Value: "decode"}),
	bytesEncoded: metrics.Default.Counter("parajoin_colbatch_bytes_total",
		"Columnar batch bytes (headers included).", metrics.Label{Name: "op", Value: "encode"}),
	bytesDecoded: metrics.Default.Counter("parajoin_colbatch_bytes_total",
		"Columnar batch bytes (headers included).", metrics.Label{Name: "op", Value: "decode"}),
	bytesRaw: metrics.Default.Counter("parajoin_colbatch_raw_bytes_total",
		"Flat-layout equivalent (8 bytes/value) of every encoded batch — compare with encoded bytes for the compression ratio."),
	valuesRaw: metrics.Default.Counter("parajoin_colbatch_values_total",
		"Values encoded, by column encoding.", metrics.Label{Name: "enc", Value: "raw"}),
	valuesDict: metrics.Default.Counter("parajoin_colbatch_values_total",
		"Values encoded, by column encoding.", metrics.Label{Name: "enc", Value: "dict"}),
	valuesConst: metrics.Default.Counter("parajoin_colbatch_values_total",
		"Values encoded, by column encoding.", metrics.Label{Name: "enc", Value: "const"}),
}

// Stats is a snapshot of the process-wide colbatch counters.
type Stats struct {
	// BatchesEncoded and BatchesDecoded count whole batches through the
	// codec; BytesEncoded and BytesDecoded their encoded sizes.
	BatchesEncoded int64
	BatchesDecoded int64
	BytesEncoded   int64
	BytesDecoded   int64
	// BytesRaw is the flat 8-bytes-per-value equivalent of everything
	// encoded; BytesEncoded/BytesRaw is the compression ratio.
	BytesRaw int64
	// ValuesRaw, ValuesDict, and ValuesConst count encoded values by the
	// column encoding that carried them. (ValuesDict+ValuesConst)/total is
	// the dictionary hit rate.
	ValuesRaw   int64
	ValuesDict  int64
	ValuesConst int64
}

// ReadStats snapshots the process-wide counters.
func ReadStats() Stats {
	return Stats{
		BatchesEncoded: counters.batchesEncoded.Value(),
		BatchesDecoded: counters.batchesDecoded.Value(),
		BytesEncoded:   counters.bytesEncoded.Value(),
		BytesDecoded:   counters.bytesDecoded.Value(),
		BytesRaw:       counters.bytesRaw.Value(),
		ValuesRaw:      counters.valuesRaw.Value(),
		ValuesDict:     counters.valuesDict.Value(),
		ValuesConst:    counters.valuesConst.Value(),
	}
}
