// Package wire defines parajoind's client↔server protocol: length-prefixed
// JSON frames over a byte stream (normally TCP).
//
// Every frame is a 4-byte big-endian length followed by that many bytes of
// JSON. Requests carry a client-chosen ID; the server answers every request
// with exactly one Response bearing the same ID. Responses may arrive out
// of order — the server evaluates queries concurrently — so clients must
// demultiplex by ID. A Cancel request references another in-flight request
// by Target; both the cancel and the canceled request get responses.
//
// JSON framing keeps the protocol debuggable with nc/jq and implementable
// from any language. Result rows are the one exception: run and execute
// answer with a colbatch stream (internal/colbatch) inside the JSON frame,
// base64-coded through the Response's RowsEnc field, which beats
// 8-bytes-per-value JSON arrays by several times on typical results.
//
// # Versioning
//
// A client advertises its version in the first request's Proto field; the
// server echoes its own in the response. Version only gates expectations —
// every frame is self-describing, and both sides ignore unknown JSON
// fields:
//
//   - v1: the base vocabulary — ping, load, loadcsv, relations, run,
//     count, explain, cancel. (Proto 0 means v1; the field postdates it.)
//   - v2: prepared statements — prepare parses a rule with "?" parameter
//     placeholders into a connection-owned handle, execute runs it with
//     positional Args, close-stmt frees it. An older server answers these
//     ops with CodeUnsupportedFrame and a healthy connection; clients
//     degrade to plain run.
//   - v3: colbatch result rows in RowsEnc. Rows are always colbatch: the
//     server answers every run/execute with RowsEnc whatever the
//     request's Encoding field says (the field is still accepted, and
//     ignored), and a failure to encode fails the query.
//   - v4: the cluster status frame (cluster).
//
// The request vocabulary, error taxonomy, and framing rationale are
// specified in DESIGN.md's "Concurrent query service" section; the row
// encoding in its "Columnar batches" section.
package wire
