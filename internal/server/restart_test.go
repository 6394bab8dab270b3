package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wal"
)

// durableWorld fixes one aggregator key pair across server
// incarnations, the way a real deployment's key outlives any single
// server process.
type durableWorld struct {
	t      *testing.T
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	cfg    core.Config
}

func newDurableWorld(t *testing.T) *durableWorld {
	t.Helper()
	raw := xortest.New()
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	return &durableWorld{t: t, scheme: bound, priv: priv, pub: pub, cfg: core.DefaultConfig()}
}

// newRuntime brings fresh parties up over the state directory dir
// ("" = in memory): recovered when it holds state, empty otherwise.
func (w *durableWorld) newRuntime(dir string) *wal.Runtime {
	w.t.Helper()
	da, err := core.NewDataAggregator(w.scheme, w.priv, w.cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	var store *wal.Store
	if dir != "" {
		if store, err = wal.Open(dir, wal.Options{NoSync: true}); err != nil {
			w.t.Fatal(err)
		}
	}
	rt := wal.NewRuntime(da, core.NewQueryServer(w.scheme, core.WithShards(8)), store, 0)
	if _, _, err := rt.Recover(); err != nil {
		w.t.Fatal(err)
	}
	return rt
}

// deliver certifies one owner operation's message through the runtime.
func (w *durableWorld) deliver(rt *wal.Runtime, msg *core.UpdateMsg, err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
	if err := rt.Deliver(msg); err != nil {
		w.t.Fatal(err)
	}
}

func (w *durableWorld) startServer(qs *core.QueryServer) (string, func()) {
	w.t.Helper()
	srv := NewNetServer(qs, NetConfig{})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		w.t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}
}

// loadAndRun seeds the relation and delivers a short update/period
// stream through the runtime.
func (w *durableWorld) loadAndRun(rt *wal.Runtime, hotKey int64, ts *int64) {
	w.t.Helper()
	recs := make([]*core.Record, 300)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte("seed")}}
	}
	msg, err := rt.DA.Load(recs, 1)
	if err != nil {
		w.t.Fatal(err)
	}
	*ts = 1
	if err := rt.Load(msg); err != nil {
		w.t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		*ts++
		msg, err := rt.DA.Update(hotKey, [][]byte{[]byte(fmt.Sprintf("v-%d", *ts))}, *ts)
		w.deliver(rt, msg, err)
		if i%10 == 9 {
			*ts++
			msg, err := rt.DA.ClosePeriod(*ts)
			w.deliver(rt, msg, err)
		}
	}
}

// TestNetRestartDurableBridges: a client that verified answers and
// synced summaries before a server restart keeps working against the
// recovered server — the summary stream continues its held sequence and
// the gap bridges through the normal paging path.
func TestNetRestartDurableBridges(t *testing.T) {
	w := newDurableWorld(t)
	dir := t.TempDir()
	rt1 := w.newRuntime(dir)
	var ts int64
	w.loadAndRun(rt1, 50, &ts)
	addr1, stop1 := w.startServer(rt1.QS)

	cl, err := client.Dial(addr1, client.Config{Scheme: w.scheme, Pub: w.pub, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	preSummaries := cl.SummaryCount()
	if preSummaries == 0 {
		t.Fatal("fixture produced no summaries")
	}
	if _, err := cl.QueryPlan(leaf(10, 600)); err != nil {
		t.Fatalf("pre-restart query: %v", err)
	}

	// Crash the server; only the state directory survives.
	stop1()
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	rt2 := w.newRuntime(dir)
	defer rt2.Close()
	// The recovered owner keeps publishing: the post-restart stream must
	// chain onto what the client already holds.
	ts += 10
	msg, err := rt2.DA.Update(50, [][]byte{[]byte("post-restart")}, ts)
	w.deliver(rt2, msg, err)
	ts++
	msg, err = rt2.DA.ClosePeriod(ts)
	w.deliver(rt2, msg, err)
	addr2, stop2 := w.startServer(rt2.QS)
	defer stop2()

	if err := cl.Reconnect(addr2); err != nil {
		t.Fatal(err)
	}
	// The answer attaches post-restart summaries; Verify bridges the gap
	// (paging through SyncSummaries under the hood) and the freshness
	// check runs against the continued stream.
	ans, err := cl.QueryPlan(leaf(10, 600))
	if err != nil {
		t.Fatalf("post-restart query did not bridge: %v", err)
	}
	fresh := false
	for _, rec := range ans.Outer.Records {
		// The update landed at ts-1; the period close may have
		// re-certified the (multi-updated) record at ts.
		if rec.Key == 50 && rec.TS >= ts-1 {
			fresh = true
		}
	}
	if !fresh {
		t.Fatal("post-restart answer does not carry the post-restart update")
	}
	if cl.SummaryCount() <= preSummaries {
		t.Fatalf("summary stream did not advance across restart: %d <= %d",
			cl.SummaryCount(), preSummaries)
	}
}

// TestNetRestartRollbackDetected: a server restarted WITHOUT durable
// state re-publishes a conflicting summary stream. The session holding
// the pre-restart stream must get a clean error — on both the explicit
// sync path and the answer-attached bridge path — never a silent accept
// of rolled-back data.
func TestNetRestartRollbackDetected(t *testing.T) {
	w := newDurableWorld(t)
	rt1 := w.newRuntime("")
	var ts int64
	w.loadAndRun(rt1, 50, &ts) // world 1 updates key 50
	addr1, stop1 := w.startServer(rt1.QS)

	cl, err := client.Dial(addr1, client.Config{Scheme: w.scheme, Pub: w.pub, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryPlan(leaf(10, 600)); err != nil {
		t.Fatal(err)
	}
	stop1()

	// World 2: same key pair, no recovery — the catalog reloads from
	// scratch and updates a DIFFERENT key, so its summary sequence
	// contradicts what the session verified.
	rt2 := w.newRuntime("")
	w.loadAndRun(rt2, 70, &ts)
	addr2, stop2 := w.startServer(rt2.QS)
	defer stop2()

	// Reconnect re-anchors the summary stream automatically, so the
	// rollback is caught at reconnect time — before any query could be
	// issued against the lying server.
	if err := cl.Reconnect(addr2); !errors.Is(err, client.ErrDiverged) {
		t.Fatalf("reconnect to rolled-back server: err=%v, want ErrDiverged", err)
	}
	if !errors.Is(client.ErrDiverged, client.ErrServer) {
		t.Fatal("ErrDiverged must read as a server error")
	}
	// The session refuses to trust the new server on every path too.
	if _, err := cl.SyncSummaries(0); !errors.Is(err, client.ErrDiverged) {
		t.Fatalf("explicit sync against rolled-back server: err=%v, want ErrDiverged", err)
	}
	if _, err := cl.QueryPlan(leaf(10, 600)); err == nil {
		t.Fatal("query against rolled-back server verified silently")
	} else if !errors.Is(err, client.ErrDiverged) {
		t.Fatalf("query against rolled-back server: err=%v, want ErrDiverged", err)
	}
}
