package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// Frames without a payload are byte-identical to the format that predates
// payloads: a 4-byte length and the JSON, nothing else.
func TestPayloadFreeFramesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{Request{ID: 7, Op: OpRun, Proto: 4, Rule: "T(x) :- E(x,y)", Strategy: "hc_tj", Encoding: EncodingColbatch},
			"\x00\x00\x00Y{\"id\":7,\"op\":\"run\",\"proto\":4,\"rule\":\"T(x) :- E(x,y)\",\"strategy\":\"hc_tj\",\"enc\":\"colbatch\"}"},
		{Response{ID: 7, Count: 3, Columns: []string{"x"}, Stats: &Stats{Strategy: "hc_tj", Workers: 2}},
			"\x00\x00\x00\x9e{\"id\":7,\"columns\":[\"x\"],\"count\":3,\"stats\":{\"strategy\":\"hc_tj\",\"workers\":2,\"wall_ns\":0,\"cpu_ns\":0,\"tuples_shuffled\":0,\"max_consumer_skew\":0,\"queue_wait_ns\":0}}"},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.v); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("frame of %T:\n got %q\nwant %q", tc.v, got, tc.want)
		}
	}
}

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

// A Response written by value still carries RowsEnc, raw: the frame is the
// JSON header, the rows and two length words, with no base64 inflation.
func TestResponseRoundTrip(t *testing.T) {
	in := Response{
		ID: 9, Proto: ProtoVersion, Stmt: 3, Params: 2,
		Columns: []string{"x", "y"}, RowsEnc: append([]byte("PJCB\x00\x01"), make([]byte, 1000)...),
		Stats: &Stats{Strategy: "rs_hj", ResultCached: true},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	bare := in
	bare.RowsEnc = nil
	header, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if max := len(in.RowsEnc) + len(header) + 8; buf.Len() > max {
		t.Fatalf("frame is %d bytes, want at most %d", buf.Len(), max)
	}
	var out Response
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.Stmt != 3 || out.Params != 2 || out.Proto != ProtoVersion || !bytes.Equal(out.RowsEnc, in.RowsEnc) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Stats == nil || !out.Stats.ResultCached {
		t.Fatalf("stats cache flags lost: %+v", out.Stats)
	}
}

// lengthWords builds a frame's length words: a header length, and a payload
// length when withPayload is set.
func lengthWords(header uint32, withPayload bool, payload uint32) []byte {
	if !withPayload {
		return binary.BigEndian.AppendUint32(nil, header)
	}
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, header|payloadFlag), payload)
}

func TestReadFrameRejectsOversizedAnnouncement(t *testing.T) {
	for _, words := range [][]byte{
		lengthWords(MaxFrame+1, false, 0),
		lengthWords(2, true, MaxFrame+1),
		lengthWords(MaxFrame/2, true, MaxFrame/2+1),
	} {
		var v Response
		err := ReadFrame(bytes.NewReader(words), &v)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("words % x: want size error, got %v", words, err)
		}
	}
}

// A payload for a type that takes none fails the frame.
func TestReadFrameRejectsUnwantedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Response{ID: 1, RowsEnc: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	var v Request
	if err := ReadFrame(&buf, &v); err == nil {
		t.Fatal("payload accepted into a Request")
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

// Announcing a huge payload and hanging up costs one readChunk of
// allocation, not the announced size.
func TestReadFrameTruncatedPayload(t *testing.T) {
	frame := append(lengthWords(2, true, MaxFrame-2), "{}"...)
	frame = append(frame, "rows"...) // then hang up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var v Response
	err := ReadFrame(bytes.NewReader(frame), &v)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*readChunk {
		t.Fatalf("allocated %d bytes for a truncated payload, want about one chunk (%d)", got, readChunk)
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
	for _, huge := range []Response{
		{Explain: strings.Repeat("x", MaxFrame)},
		{RowsEnc: make([]byte, MaxFrame)},
	} {
		var buf bytes.Buffer
		err := WriteFrame(&buf, huge)
		if !errors.Is(err, ErrFrameTooLarge) || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("want ErrFrameTooLarge for oversized frame, got %v", err)
		}
		if buf.Len() != 0 {
			t.Fatalf("refused frame wrote %d bytes", buf.Len())
		}
	}
}
