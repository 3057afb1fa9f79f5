package parajoin_test

import (
	"context"
	"net"
	"testing"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/server"
)

// TestWireUploadPublishesASnapshot is the wire half of
// TestEveryMutationPathPublishesASnapshot: both upload ops of a served DB
// must land the planning snapshot on the engine's data epoch, and the next
// query must answer from the uploaded data.
func TestWireUploadPublishesASnapshot(t *testing.T) {
	db := parajoin.Open(4)
	if err := db.LoadEdges("E", [][2]int64{{1, 2}, {2, 3}, {3, 1}}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(func() {
		srv.Shutdown(ctx)
		cancel()
		db.Close()
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rule = "Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)"
	run := func(wantRows int) {
		t.Helper()
		res, err := c.Run(ctx, rule, client.QueryOptions{Strategy: "hc_tj"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
		}
	}
	uploads := []struct {
		name string
		do   func() error
		rows int // each directed triangle answers once per rotation
	}{
		{"load", func() error {
			return c.Load(ctx, "E", []string{"src", "dst"}, [][]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 1}, {1, 3}})
		}, 6},
		{"load_csv", func() error { return c.LoadCSV(ctx, "E", "src,dst\n1,2\n2,3\n") }, 0},
	}
	rows := 3
	run(rows)
	for _, u := range uploads {
		before := db.SnapshotEpoch()
		if err := u.do(); err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if got := db.SnapshotEpoch(); got != db.DataEpoch() || got <= before {
			t.Errorf("%s: snapshot epoch %d after %d, engine at %d", u.name, got, before, db.DataEpoch())
		}
		rows = u.rows
		run(rows)
	}
}
