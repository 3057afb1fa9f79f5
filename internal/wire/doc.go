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
// with one or more Response frames bearing the same ID, the last with More
// unset. Only a run/execute answer takes more than one: its rows stream as
// colbatch chunks, one per frame, and the last frame carries the columns
// and stats (or the error that ends the answer, after which the client
// drops the chunks it has). Responses may arrive out of order and the
// frames of concurrent answers interleave — the server evaluates queries
// concurrently — so clients demultiplex by ID with a Link, as the cluster
// coordinator does on its member links; a Link finishes each request
// exactly once, on its last frame. A Cancel request references another
// in-flight request by Target; both get responses.
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
//   - v6: chunked answers. A run/execute answer streams as frames on its
//     request ID, each carrying one colbatch chunk of a bounded number of
//     values; every frame but the last sets More. MaxFrame then bounds a
//     chunk, not an answer. An answer that needs more than one frame is
//     refused to a peer that advertised no Proto or one below 6, with
//     CodeUnsupportedFrame, since such a peer would take its first frame
//     for the whole answer; a one-frame answer is the same bytes in every
//     version and goes to any peer.
//
// The request vocabulary, error taxonomy, and framing rationale are
// specified in DESIGN.md's "Concurrent query service" section; the row
// encoding in its "Columnar batches" section.
package wire
