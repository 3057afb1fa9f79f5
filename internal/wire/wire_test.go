package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		ID: 42, Op: OpExecute, Proto: ProtoVersion,
		Stmt: 7, Args: []int64{1, -2, 3},
		Rule: "T(x) :- E(x,?)", Strategy: "hc_tj",
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.ID != in.ID || out.Op != in.Op || out.Proto != in.Proto || out.Stmt != in.Stmt {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	if len(out.Args) != 3 || out.Args[1] != -2 {
		t.Fatalf("args mismatch: %v", out.Args)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := Response{
		ID: 9, Proto: ProtoVersion, Stmt: 3, Params: 2,
		Columns: []string{"x", "y"}, RowsEnc: []byte("PJCB\x00\x01"),
		Stats: &Stats{Strategy: "rs_hj", PlanCached: true, ResultCached: true},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out Response
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.Stmt != 3 || out.Params != 2 || out.Proto != ProtoVersion || !bytes.Equal(out.RowsEnc, in.RowsEnc) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Stats == nil || !out.Stats.PlanCached || !out.Stats.ResultCached {
		t.Fatalf("stats cache flags lost: %+v", out.Stats)
	}
}

func TestReadFrameRejectsOversizedAnnouncement(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var v Request
	err := ReadFrame(bytes.NewReader(hdr[:]), &v)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("want size error, got %v", err)
	}
}

// A hostile header announcing a huge frame followed by a hangup must fail
// with a read error, not allocate the announced size (the chunked reader
// caps speculative allocation at one chunk).
func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame) // announce the max
	buf.Write(hdr[:])
	buf.WriteString("{}") // then hang up after two bytes
	var v Request
	if err := ReadFrame(&buf, &v); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

// Frames larger than one read chunk round-trip intact.
func TestReadFrameMultiChunk(t *testing.T) {
	rows := make([][]int64, 0, 1<<17)
	for i := 0; i < 1<<17; i++ { // ~2.6 MB of JSON > readChunk
		rows = append(rows, []int64{int64(i), int64(i * 2)})
	}
	in := Request{ID: 1, Op: OpLoad, Name: "E", Rows: rows}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	if buf.Len() <= readChunk {
		t.Fatalf("test frame too small to exercise chunking: %d", buf.Len())
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out.Rows) != len(rows) || out.Rows[12345][1] != 24690 {
		t.Fatalf("multi-chunk rows corrupted")
	}
}

func TestWriteFrameRejectsOversizedBody(t *testing.T) {
	huge := Response{Explain: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, huge); err == nil {
		t.Fatal("want size error for oversized frame")
	}
}
