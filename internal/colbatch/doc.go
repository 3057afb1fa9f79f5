// Package colbatch is parajoin's shared binary batch format: a versioned,
// checksummed, dictionary-encoded, column-major layout for tuple batches.
// One format serves all three payload paths — the TCP exchange transport's
// data frames, spill segment files, and the wire protocol's columnar result
// encoding — so bytes written by any of them can be read by the others and
// every path benefits from the same compression.
//
// # Layout
//
// A batch is a 20-byte header followed by a payload of consecutive column
// blocks:
//
//	offset size  field
//	0      4     magic "PJCB"
//	4      1     version (1)
//	5      1     flags (reserved, must be 0)
//	6      2     columns, little-endian uint16
//	8      4     rows, little-endian uint32
//	12     4     payload length in bytes, little-endian uint32
//	16     4     CRC-32 (IEEE) of the payload, little-endian uint32
//
// Each column block starts with one encoding byte:
//
//	const (0): one zigzag varint — every row holds that value
//	raw   (1): rows zigzag varints, the column's values in row order
//	dict  (2): uvarint distinct-count d, then d zigzag varints (the
//	           dictionary, in first-appearance order), then rows uvarint
//	           indexes into it
//
// The encoder picks, per column, whichever encoding is smallest for the
// actual data. Values are attribute values from internal/rel — already
// int64 codes, because rel.Dict interns every string at load time — so the
// dict encoding here is a second-level dictionary: it compresses columns
// whose (string or integer) values repeat within a batch, which is exactly
// the shape dictionary-encoded string workloads produce.
//
// # Writing
//
// An Encoder builds each column's dictionary in a table it owns: open
// addressing with linear probing over at least twice as many slots as the
// dictionary may hold, each slot stamped with a generation, so starting
// the next column is one increment and never a sweep. Dictionaries keep
// first-appearance order, so the bytes are those of the plain map-based
// encoder the table replaced. AppendTuples and AppendRows transpose rows
// into columns first; AppendColumns takes a caller's columns as they are
// (a spill Sorter unpacks its sorted words straight into them).
//
// # Reading
//
// Decode validates the magic, version, checksum, and size limits before
// allocating, then decodes each column straight into one row-major arena
// (row i is values [i*cols, (i+1)*cols)). A receiver materializes rows
// (Batch.Tuples, AppendTuples, AppendRows) as views of that arena: one
// header per row, no value copy, capacities clamped so that appending to
// one row can never clobber the next. Stream readers presize their output
// with RowsHint, which reads the batch headers and is capped at the input
// length, so a header claiming rows that never arrive reserves nothing
// beyond the bytes that did. DecodeInto decodes into a Batch the caller
// reuses, its arena and dictionary scratch grown only for a larger batch,
// for a reader that keeps no row past its batch (the spill merge). A
// payload whose CRC does not match fails with an error wrapping
// ErrChecksum.
//
// Batches are capped at MaxRows rows; Append/Decode of larger payloads is
// an error. Larger row sets travel as a stream of concatenated batches
// (AppendRowsStream/DecodeRowsStream), which also bounds what a decoder
// allocates before validating each chunk.
package colbatch
