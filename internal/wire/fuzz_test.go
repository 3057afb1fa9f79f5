package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must never
// panic, and any frame it accepts must re-encode and decode back to the
// same wire form (round-trip stability — the property the prepared-
// statement frames rely on for replay).
func FuzzReadFrame(f *testing.F) {
	seed := func(v any) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(Request{ID: 1, Op: OpPing, Proto: ProtoVersion})
	seed(Request{ID: 2, Op: OpPrepare, Rule: "T(x) :- E(x,?)"})
	seed(Request{ID: 3, Op: OpExecute, Stmt: 1, Args: []int64{5}})
	seed(Request{ID: 4, Op: OpCloseStmt, Stmt: 1})
	seed(Response{ID: 2, Stmt: 1, Params: 1, Proto: ProtoVersion})
	seed(Response{ID: 3, Columns: []string{"x"}, RowsEnc: []byte("PJCB\x01\x00")})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err != nil {
			return // malformed input rejected without panic: fine
		}
		// Accepted frames must round-trip bit-stably through one
		// re-encode/re-decode cycle.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		var again Request
		if err := ReadFrame(&buf, &again); err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		buf.Reset()
		if err := WriteFrame(&buf, again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("round trip unstable:\n%q\n%q", first, buf.Bytes())
		}
	})
}
