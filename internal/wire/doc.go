// Package wire defines parajoind's client↔server protocol and the one frame
// codec every parajoin link uses: clients, the cluster protocol, the engine's
// tuple exchange.
//
// A frame is a 4-byte big-endian length and that many bytes of JSON header.
// When the length word's top bit is set, a 4-byte payload length follows it
// and that many raw bytes follow the header: the one []byte field of a type
// implementing Payloader, such as Response.RowsEnc, rides there instead of
// base64 inside the JSON. A payload-free frame is plain length-prefixed JSON,
// debuggable with nc/jq and implementable from any language.
//
// Requests carry a client-chosen ID; the server answers every request
// with exactly one Response bearing the same ID. Responses may arrive out
// of order — the server evaluates queries concurrently — so clients
// demultiplex by ID with a Link, as the cluster coordinator does on its
// member links; a Link finishes each request exactly once. A Cancel request
// references another in-flight request by Target; both get responses.
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
//   - v5: RowsEnc (and the cluster protocol's and exchange's binary
//     fields) moved from base64 JSON into the frame payload. A pre-v5
//     reader fails a row-bearing response with "exceeds limit".
//
// The request vocabulary, error taxonomy, and framing rationale are
// specified in DESIGN.md's "Concurrent query service" section; the row
// encoding in its "Columnar batches" section.
package wire
