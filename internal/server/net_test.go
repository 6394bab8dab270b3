package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

func testScheme() sigagg.Scheme { return xortest.New() }

// newRelation is a one-relation catalog over scheme.
func newRelation(t testing.TB, scheme sigagg.Scheme, qsOpts ...core.Option) *core.Relation {
	t.Helper()
	cat, err := core.NewCatalog(scheme, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation(core.DefaultRelation, nil, nil, qsOpts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// leaf is the plan a range selection is.
func leaf(lo, hi int64) *query.Spec {
	return &query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi}
}

// newNetFixture boots a loaded relation behind a loopback NetServer and
// returns it with the listen address and a shutdown func.
func newNetFixture(t *testing.T, n int, cfg NetConfig) (*core.Relation, []int64, string, func()) {
	t.Helper()
	sys, keys, addr, _, shutdown := newNetFixtureSrv(t, n, cfg)
	return sys, keys, addr, shutdown
}

// newNetFixtureSrv is newNetFixture plus the server handle, for tests
// that poke at internals (admission slots, counters).
func newNetFixtureSrv(t *testing.T, n int, cfg NetConfig) (*core.Relation, []int64, string, *NetServer, func()) {
	t.Helper()
	sys := newRelation(t, testScheme(), core.WithShards(8))
	recs := workload.Records(workload.Config{N: n, RecLen: 64, Seed: 42})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(sys.QS, cfg)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return sys, keys, ln.Addr().String(), srv, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
	}
}

func dialTest(t *testing.T, sys *core.Relation, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestNetRoundTrip exercises the wire path end to end: pipelined
// verified queries, cached and uncached, plus the summary stream.
func TestNetRoundTrip(t *testing.T) {
	sys, keys, addr, srv, shutdown := newNetFixtureSrv(t, 500, NetConfig{})
	defer shutdown()

	cl := dialTest(t, sys, addr)
	specs := []*query.Spec{
		leaf(keys[10], keys[60]),
		leaf(keys[0], keys[5]),
		leaf(keys[480], keys[499]+100), // runs off the domain edge
		leaf(keys[10], keys[60]),       // repeat: earns the range residency
		leaf(keys[10], keys[60]),       // and again: served from cache
	}
	answers, err := cl.QueryPlans(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(specs) {
		t.Fatalf("%d answers", len(answers))
	}
	if got := len(answers[0].Outer.Records); got != 51 {
		t.Fatalf("[keys[10],keys[60]] returned %d records, want 51", got)
	}
	// Same bytes whether built or cached: both verified above; spot-check
	// equality of the decoded answers.
	if answers[0].Outer.Agg == nil || answers[4].Outer.Agg == nil {
		t.Fatal("missing aggregate")
	}
	if fmt.Sprintf("%x", answers[0].Outer.Agg) != fmt.Sprintf("%x", answers[4].Outer.Agg) {
		t.Fatal("cached repeat decoded differently")
	}
	if sv := srv.engine().Stats().Cache; sv.Hits+sv.Coalesced == 0 {
		t.Fatalf("no repeat was served from the cache: %+v", sv)
	}
	st := cl.Stats()
	if st.Queries != 5 || st.Verified != 5 {
		t.Fatalf("client stats %+v", st)
	}
}

// TestNetSummaryStream covers the freshness path over the socket:
// log-in back-history, then new periods picked up via answers.
func TestNetSummaryStream(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 300, NetConfig{})
	defer shutdown()
	ts := int64(1)
	closePeriod := func() {
		ts += 10
		msg, err := sys.DA.ClosePeriod(ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	update := func(key int64) {
		ts++
		msg, err := sys.DA.Update(key, [][]byte{[]byte("v")}, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	closePeriod() // period 1 pins the load
	cl := dialTest(t, sys, addr)
	n, err := cl.SyncSummaries(0)
	if err != nil || n != 1 {
		t.Fatalf("sync = %d, %v; want 1 summary", n, err)
	}
	// Two more periods, then a query whose answer must bridge them.
	update(keys[7])
	closePeriod()
	update(keys[7])
	closePeriod()
	if _, err := cl.QueryPlan(leaf(keys[7], keys[7])); err != nil {
		t.Fatal(err)
	}
	if got := cl.SummaryCount(); got != 3 {
		t.Fatalf("client holds %d summaries after query, want 3", got)
	}
}

// TestNetSummaryPaging: the server caps summaries per 'T' response and
// the client pages through the backlog from the newest summary it holds,
// so a long-lived server's history never has to fit one frame.
func TestNetSummaryPaging(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 200, NetConfig{MaxSummaries: 2})
	defer shutdown()
	ts := int64(1)
	for i := 0; i < 7; i++ {
		ts++
		msg, err := sys.DA.Update(keys[i], [][]byte{[]byte("v")}, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
		ts += 10
		sum, err := sys.DA.ClosePeriod(ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(sum); err != nil {
			t.Fatal(err)
		}
	}
	cl := dialTest(t, sys, addr)
	n, err := cl.SyncSummaries(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 || cl.SummaryCount() != 7 {
		t.Fatalf("paged sync ingested %d (holding %d), want 7", n, cl.SummaryCount())
	}
	// A session's stream has no holes and starts at its beginning: a cold
	// session that asks from the middle reads what lies before it too.
	cold := dialTest(t, sys, addr)
	if n, err := cold.SyncSummaries(ts - 20); err != nil || n != 7 {
		t.Fatalf("cold sync from the middle ingested %d (%v), want the whole stream of 7", n, err)
	}
}

// TestNetServerErrorResponse checks that protocol errors come back as
// 'E' frames and leave the connection usable.
func TestNetServerErrorResponse(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 100, NetConfig{})
	defer shutdown()
	cl := dialTest(t, sys, addr)
	// Only the server can know the relation signs no attributes to project.
	_, err := cl.QueryPlan(&query.Spec{Rel: core.DefaultRelation, Lo: keys[0], Hi: keys[50], Attrs: []int{0}})
	if !errors.Is(err, client.ErrServer) {
		t.Fatalf("projection of an unsigned attribute: %v, want ErrServer", err)
	}
	// What the planner can refuse never leaves the client…
	if _, err := cl.QueryPlan(leaf(50_000_000, 1)); !errors.Is(err, client.ErrConfig) {
		t.Fatalf("inverted range: %v, want ErrConfig", err)
	}
	// …and a peer that sends it anyway is told so by the server.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inverted := (&query.Spec{Rel: core.DefaultRelation, Lo: 50_000_000, Hi: 1}).Marshal()
	if err := wire.WriteFrame(conn, wire.AppendPlanReq(nil, inverted, nil, 0)); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg, err := wire.DecodeErrorCode(resp); err != nil || code != wire.ErrCodeGeneric || !strings.Contains(msg, "inverted range") {
		t.Fatalf("inverted range on the wire: code %d, %q, %v; want a generic 'E' naming the range", code, msg, err)
	}
	// The connection survives a served error.
	if _, err := cl.QueryPlan(leaf(keys[0], keys[50])); err != nil {
		t.Fatalf("query after error: %v", err)
	}
}

// TestNetServerConnLimit: with MaxConns=1 a second connection is not
// served until the first closes.
func TestNetServerConnLimit(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 100, NetConfig{MaxConns: 1})
	defer shutdown()
	cl1 := dialTest(t, sys, addr)
	if _, err := cl1.QueryPlan(leaf(keys[0], keys[10])); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		cl2, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
		if err != nil {
			done <- err
			return
		}
		defer cl2.Close()
		_, err = cl2.QueryPlan(leaf(keys[0], keys[10]))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second connection served while the first held the only slot (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	cl1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second connection after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never served after the first closed")
	}
}

// TestNetSummaryStreamRace races the publisher's MarkUpdated/Next/ReplaySummary
// (through the DA's single-writer update loop) against concurrent
// Checker consumption by networked clients and direct readers of the
// server's summary stream — the aliasing and locking regression for the
// freshness publisher, run under -race in CI.
func TestNetSummaryStreamRace(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 400, NetConfig{})
	defer shutdown()

	stop := make(chan struct{})
	var writerErr error
	var writerWG, wg sync.WaitGroup
	writerWG.Add(1)
	go func() { // single writer: updates + period closes
		defer writerWG.Done()
		ts := int64(1)
		gen := workload.NewUpdateGen(keys, 7)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			ts++
			msg, err := sys.DA.Update(gen.Next(), [][]byte{[]byte("r")}, ts)
			if err == nil {
				err = sys.QS.Apply(msg)
			}
			if err == nil && i%10 == 0 {
				ts++
				var m *core.UpdateMsg
				if m, err = sys.DA.ClosePeriod(ts); err == nil {
					err = sys.QS.Apply(m)
				}
			}
			if err != nil {
				writerErr = err
				return
			}
		}
	}()
	// Direct stream readers, appending to their returned slices.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := sys.QS.SummariesTail(0, 0)
				if len(h) > 0 {
					_ = append(h, freshness.Summary{Seq: 1 << 60}) // must never reach the stream
				}
			}
		}()
	}
	// Networked verifying consumers.
	clientErrs := make([]error, 3)
	for c := range clientErrs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
			if err != nil {
				clientErrs[c] = err
				return
			}
			defer cl.Close()
			if _, err := cl.SyncSummaries(0); err != nil {
				clientErrs[c] = err
				return
			}
			gen := workload.NewQueryGen(keys, 0.02, int64(c+1))
			for i := 0; i < 25; i++ {
				q := gen.Next()
				if _, stale, err := queryWithRequery(cl, []*query.Spec{leaf(q.Lo, q.Hi)}); err != nil {
					clientErrs[c] = fmt.Errorf("client %d: %w (stale retries %d)", c, err, stale)
					return
				}
				if i%8 == 0 {
					if _, err := cl.SyncSummaries(0); err != nil {
						clientErrs[c] = err
						return
					}
				}
			}
		}(c)
	}
	// Consumers finish first; the writer keeps racing them until then.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("race test wedged")
	}
	close(stop)
	writerWG.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for c, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
}
