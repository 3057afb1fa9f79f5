package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, as a Request
// and as a Response: it must never panic, and any frame it accepts must
// re-encode and decode back to the same wire form (round-trip stability —
// the property the prepared-statement frames rely on for replay), payload
// included.
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
	seed(Response{ID: 4, Columns: []string{"x", "y"}, Count: 2, RowsEnc: bytes.Repeat([]byte{0, 0xff}, 300)})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0x80, 0, 0, 2, 0, 0, 0, 1, '{', '}', 7})
	f.Add([]byte{0x80, 0, 0, 2, 0, 0, 0, 0, '{', '}'})
	f.Add([]byte{0x80, 0, 0, 2, 0, 0, 0, 9, '{', '}', 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, new(Request), new(Request))
		roundTrip(t, data, new(Response), new(Response))
	})
}

// roundTrip decodes data into first; when that succeeds, the frame must
// survive re-encode → re-decode (into again) → re-encode bit-stably.
func roundTrip(t *testing.T, data []byte, first, again any) {
	if err := ReadFrame(bytes.NewReader(data), first); err != nil {
		return // malformed input rejected without panic: fine
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, first); err != nil {
		t.Fatalf("re-encode of accepted %T failed: %v", first, err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	if err := ReadFrame(&buf, again); err != nil {
		t.Fatalf("re-decode of re-encoded %T failed: %v", first, err)
	}
	buf.Reset()
	if err := WriteFrame(&buf, again); err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(encoded, buf.Bytes()) {
		t.Fatalf("%T round trip unstable:\n%q\n%q", first, encoded, buf.Bytes())
	}
}
