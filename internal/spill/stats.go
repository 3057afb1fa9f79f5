package spill

import "parajoin/internal/metrics"

// counters are the process-wide spill counters, registered in the metrics
// registry (scraped at /metrics). They aggregate across every run and
// cluster in the process.
var counters = struct {
	spills       *metrics.Counter // runs sealed to disk
	segments     *metrics.Counter // sealed runs written as segments
	bytesWritten *metrics.Counter
	bytesRead    *metrics.Counter
	dirsCreated  *metrics.Counter
	activeDirs   *metrics.Gauge
}{
	spills: metrics.Default.Counter("parajoin_spill_seals_total",
		"In-memory runs sealed to disk."),
	segments: metrics.Default.Counter("parajoin_spill_segments_total",
		"Spill segments written (one per sealed run, each an extent of its run's spill file)."),
	bytesWritten: metrics.Default.Counter("parajoin_spill_bytes_total",
		"Spill segment I/O bytes.", metrics.Label{Name: "dir", Value: "written"}),
	bytesRead: metrics.Default.Counter("parajoin_spill_bytes_total",
		"Spill segment I/O bytes.", metrics.Label{Name: "dir", Value: "read"}),
	dirsCreated: metrics.Default.Counter("parajoin_spill_dirs_created_total",
		"Per-run spill directories ever created."),
	activeDirs: metrics.Default.Gauge("parajoin_spill_dirs_active",
		"Spill directories currently on disk (a steady positive value between runs means a cleanup leak)."),
}

// Stats is a snapshot of the process-wide spill counters.
type Stats struct {
	// Spills counts in-memory runs sealed to disk.
	Spills int64
	// Segments counts segments written: one per sealed run, each an
	// extent of its run's spill file.
	Segments int64
	// BytesWritten and BytesRead count segment I/O.
	BytesWritten int64
	BytesRead    int64
	// DirsCreated counts run directories ever made; ActiveDirs is how
	// many currently exist (should fall back to 0 between runs — a
	// steady positive value means a cleanup leak).
	DirsCreated int64
	ActiveDirs  int64
}

// ReadStats snapshots the process-wide counters.
func ReadStats() Stats {
	return Stats{
		Spills:       counters.spills.Value(),
		Segments:     counters.segments.Value(),
		BytesWritten: counters.bytesWritten.Value(),
		BytesRead:    counters.bytesRead.Value(),
		DirsCreated:  counters.dirsCreated.Value(),
		ActiveDirs:   counters.activeDirs.Value(),
	}
}
