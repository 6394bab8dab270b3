package replica_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wal"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// primaryFixture is a loaded primary serving both queries and the
// replication feed. Every message — the load included, so a WAL-backed
// primary's log is its whole history — goes through the relation
// runtime, which keeps the WAL (optional), QueryServer, and Source in
// the required append → apply → publish order.
type primaryFixture struct {
	sys   *core.Relation
	rt    *wal.Runtime
	store *wal.Store
	src   *replica.Source
	srv   *server.NetServer
	addr  string
	ts    int64
	keys  []int64
}

func newPrimary(t *testing.T, n int, withLog bool, daOpts ...core.DAOption) (*primaryFixture, func()) {
	t.Helper()
	return newPrimaryUnder(t, xortest.New(), nil, n, withLog, daOpts...)
}

// newPrimaryUnder is newPrimary under raw, keyed from rnd.
func newPrimaryUnder(t *testing.T, raw sigagg.Scheme, rnd io.Reader, n int, withLog bool, daOpts ...core.DAOption) (*primaryFixture, func()) {
	t.Helper()
	cat, err := core.NewCatalog(raw, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, rnd, daOpts, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	f := &primaryFixture{sys: sys, ts: 1}
	if withLog {
		store, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		f.store = store
	}
	f.rt = wal.NewRuntime(sys.DA, sys.QS, f.store, 0)
	f.src = replica.NewSource(f.rt, replica.SourceConfig{Heartbeat: 20 * time.Millisecond})

	recs := workload.Records(workload.Config{N: n, RecLen: 32, Seed: 7})
	f.keys = workload.Keys(recs)
	msg, err := sys.DA.Load(recs, f.ts)
	if err != nil {
		t.Fatal(err)
	}
	f.publish(t, msg)

	f.srv = server.NewNetServer(sys.QS, server.NetConfig{})
	f.srv.EnableReplication(core.DefaultRelation, f.src)
	ln, err := f.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- f.srv.Serve(ln) }()
	f.addr = ln.Addr().String()
	return f, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := f.srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("serve returned %v", err)
		}
		if err := f.rt.Close(); err != nil {
			t.Errorf("runtime close: %v", err)
		}
	}
}

// publish routes one dissemination message through the runtime.
func (f *primaryFixture) publish(t *testing.T, msg *core.UpdateMsg) {
	t.Helper()
	if err := f.rt.Deliver(msg); err != nil {
		t.Fatal(err)
	}
}

// update mutates one key and closes a ρ-period, publishing both.
func (f *primaryFixture) update(t *testing.T, key int64) {
	t.Helper()
	f.ts++
	msg, err := f.sys.DA.Update(key, [][]byte{[]byte(fmt.Sprintf("u-%d", f.ts))}, f.ts)
	if err != nil {
		t.Fatal(err)
	}
	f.publish(t, msg)
	f.ts++
	sum, err := f.sys.DA.ClosePeriod(f.ts)
	if err != nil {
		t.Fatal(err)
	}
	f.publish(t, sum)
}

// schemes is the followers' scheme lookup: a fresh scheme by name, as
// authserve's is.
func schemes(name string) (sigagg.Scheme, error) {
	switch name {
	case "xortest":
		return xortest.New(), nil
	case "crsa":
		return crsa.New(crsa.DefaultBits), nil
	}
	return nil, fmt.Errorf("no scheme %q", name)
}

func newTestFollower(t *testing.T, f *primaryFixture) *replica.Follower {
	t.Helper()
	return newRelFollower(t, core.DefaultRelation)
}

func newRelFollower(t *testing.T, rel string) *replica.Follower {
	t.Helper()
	return replica.NewFollower(replica.FollowerConfig{
		Rel:         rel,
		QSOpts:      []core.Option{core.WithShards(4)},
		ReadTimeout: 2 * time.Second,
		RetryBase:   10 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	}, schemes)
}

// dialFollower serves the follower's replica of the relation on a
// loopback listener and opens a verifying session against it; both end
// with the test.
func dialFollower(t *testing.T, f *primaryFixture, fl *replica.Follower) *client.Client {
	t.Helper()
	fsrv := server.NewNetServer(fl.QS(), server.NetConfig{})
	ln, err := fsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(ln)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		fsrv.Shutdown(sctx)
	})
	cl, err := client.Dial(ln.Addr().String(), client.Config{Scheme: f.sys.Scheme, Pub: f.sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// caughtUp reports whether the follower mirrors the primary exactly.
func caughtUp(f *primaryFixture, fl *replica.Follower) bool {
	qs := fl.QS()
	return qs != nil && fl.Stats().AppliedLSN == f.src.LastLSN() &&
		qs.Len() == f.sys.QS.Len() &&
		len(qs.SummariesTail(0, 0)) == len(f.sys.QS.SummariesTail(0, 0))
}

// TestFollowerBootstrapImage exercises the 'B' path: a primary without
// a WAL can only serve a full image, and the follower installs it and
// stays current from the live feed.
func TestFollowerBootstrapImage(t *testing.T) {
	f, shutdown := newPrimary(t, 300, false)
	defer shutdown()
	fl := newTestFollower(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx, f.addr)

	waitUntil(t, "bootstrap catch-up", func() bool { return caughtUp(f, fl) })
	if fl.Stats().Bootstraps == 0 {
		t.Fatal("no-WAL primary must bootstrap with an image")
	}
	for i := 0; i < 5; i++ {
		f.update(t, f.keys[i])
	}
	waitUntil(t, "live tail", func() bool { return caughtUp(f, fl) })
	if fl.Stats().Lag != 0 {
		t.Fatalf("lag = %d after catch-up", fl.Stats().Lag)
	}
	// Heartbeats keep the primary LSN observable on an idle feed.
	waitUntil(t, "heartbeat", func() bool { return fl.Stats().PrimaryLSN == f.src.LastLSN() })
}

// TestFollowerTailsLog exercises the 'W' catch-up path: a fresh
// follower is imaged once — the image is where it learns its binding —
// and, with the primary's WAL intact, a restarted follower resumes from
// its applied LSN by replaying the log tail, without re-bootstrapping.
func TestFollowerTailsLog(t *testing.T) {
	f, shutdown := newPrimary(t, 300, true)
	defer shutdown()
	fl := newTestFollower(t, f)
	stop := runFollower(fl, f.addr)
	waitUntil(t, "first catch-up", func() bool { return caughtUp(f, fl) })
	if b := fl.Stats().Bootstraps; b != 1 {
		t.Fatalf("bootstraps = %d, want 1 (a fresh follower is imaged)", b)
	}

	// Stop the feed, advance the primary, restart: the follower
	// resumes after its applied LSN and only tails the delta.
	stop()
	applied := fl.Stats().AppliedLSN
	for i := 0; i < 4; i++ {
		f.update(t, f.keys[10+i])
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go fl.Run(ctx2, f.addr)
	waitUntil(t, "resumed catch-up", func() bool { return caughtUp(f, fl) })
	if fl.Stats().AppliedLSN <= applied || fl.Stats().Records != 8 {
		t.Fatalf("follower at lsn %d after resume from %d, %d records applied; want the 8 logged since", fl.Stats().AppliedLSN, applied, fl.Stats().Records)
	}
	if b := fl.Stats().Bootstraps; b != 1 {
		t.Fatalf("bootstraps = %d after resume, want no second one", b)
	}
}

// TestFollowerRebootstrapsPastTruncation: when the primary's log has
// been truncated past the follower's position (snapshot + DropThrough
// while the follower was away), resubscription falls back to a fresh
// image.
func TestFollowerRebootstrapsPastTruncation(t *testing.T) {
	f, shutdown := newPrimary(t, 200, true)
	defer shutdown()
	fl := newTestFollower(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		fl.Run(ctx, f.addr)
		close(stopped)
	}()
	waitUntil(t, "initial catch-up", func() bool { return caughtUp(f, fl) })
	cancel()
	<-stopped // the first feed applies nothing more: the follower stays behind the truncation

	for i := 0; i < 3; i++ {
		f.update(t, f.keys[i])
	}
	// Snapshot the primary and truncate every covered segment, so the
	// follower's resume point predates the log.
	snap, err := wal.Capture(f.sys.DA, f.sys.QS, f.store.LastLSN(), f.ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	f.update(t, f.keys[5]) // ensure the feed has post-snapshot traffic
	if first := f.store.Log().FirstLSN(); first <= fl.Stats().AppliedLSN+1 {
		t.Fatalf("log not truncated (first=%d, follower at %d): test setup broken", first, fl.Stats().AppliedLSN)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go fl.Run(ctx2, f.addr)
	waitUntil(t, "re-bootstrap", func() bool { return caughtUp(f, fl) })
	if b := fl.Stats().Bootstraps; b != 2 {
		t.Fatalf("bootstraps = %d: a truncated log must force a second image", b)
	}
}

// TestFollowerServesProjectionFromImage: the image a follower is
// bootstrapped from is the whole relation, the §3.4 attribute sideband
// included. The primary's relation is projection-mode (as authserve's
// first relation always is); the follower holds its records only through
// a 'B' frame — cold from a primary with no log to tail, and again after
// its resume point fell behind a truncated log — and a verifying client's
// projection plan against the follower closes each time.
func TestFollowerServesProjectionFromImage(t *testing.T) {
	project := func(t *testing.T, f *primaryFixture, fl *replica.Follower, lo, hi int64) *wire.Composite {
		t.Helper()
		cl := dialFollower(t, f, fl)
		comp, err := cl.QueryPlan(&query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi, Attrs: []int{0}})
		if err != nil {
			t.Fatalf("verified projection plan against the follower: %v", err)
		}
		if comp.Proj == nil || len(comp.Proj.Rows) == 0 || len(comp.Proj.Rows) != len(comp.Outer.Records) {
			t.Fatalf("projection section: %+v over %d records", comp.Proj, len(comp.Outer.Records))
		}
		return comp
	}

	t.Run("cold", func(t *testing.T) {
		f, shutdown := newPrimary(t, 300, false, core.WithAttrSigning())
		defer shutdown()
		fl := newTestFollower(t, f)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go fl.Run(ctx, f.addr)
		waitUntil(t, "bootstrap catch-up", func() bool { return caughtUp(f, fl) })
		if fl.Stats().Bootstraps != 1 || fl.Stats().Records != 0 {
			t.Fatalf("follower stats %+v: its records must have come from one image", fl.Stats())
		}
		project(t, f, fl, f.keys[0], f.keys[40])
	})

	t.Run("re-bootstrap past truncation", func(t *testing.T) {
		f, shutdown := newPrimary(t, 200, true, core.WithAttrSigning())
		defer shutdown()
		fl := newTestFollower(t, f)
		stop := runFollower(fl, f.addr)
		waitUntil(t, "initial catch-up", func() bool { return caughtUp(f, fl) })
		stop() // the first feed applies nothing more: the follower stays behind the truncation

		// While the follower is away: new attribute values, then a snapshot
		// that truncates the log past its resume point.
		for i := 0; i < 3; i++ {
			f.update(t, f.keys[i])
		}
		snap, err := wal.Capture(f.sys.DA, f.sys.QS, f.store.LastLSN(), f.ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.store.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		f.update(t, f.keys[5]) // the log is not empty, only short
		if first := f.store.Log().FirstLSN(); first <= fl.Stats().AppliedLSN+1 {
			t.Fatalf("log not truncated (first=%d, follower at %d): test setup broken", first, fl.Stats().AppliedLSN)
		}
		records := fl.Stats().Records

		ctx2, cancel2 := context.WithCancel(context.Background())
		defer cancel2()
		go fl.Run(ctx2, f.addr)
		waitUntil(t, "re-bootstrap", func() bool { return caughtUp(f, fl) })
		if fl.Stats().Bootstraps != 2 || fl.Stats().Records != records {
			t.Fatalf("follower stats %+v: the updates must have come from a second image", fl.Stats())
		}
		comp := project(t, f, fl, f.keys[0], f.keys[10])
		if got := string(comp.Proj.Rows[0].Values[0]); !strings.HasPrefix(got, "u-") {
			t.Fatalf("row of updated key %d carries %q, want the value written while the follower was away", f.keys[0], got)
		}
	})
}

// TestFollowerPauseResume: a follower whose feed is cut — the fleet
// harness's artificial lag, a faultnet proxy refusing its redials —
// freezes; once the feed is back it catches up.
func TestFollowerPauseResume(t *testing.T) {
	f, shutdown := newPrimary(t, 200, true)
	defer shutdown()
	fl := newTestFollower(t, f)
	feed, err := faultnet.NewProxy(f.addr, faultnet.Profile{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx, feed.Addr())
	waitUntil(t, "catch-up", func() bool { return caughtUp(f, fl) })

	feed.SetUpstream("127.0.0.1:1") // nothing listens: every redial is refused
	feed.DropAll()
	frozen := fl.Stats().AppliedLSN
	for i := 0; i < 5; i++ {
		f.update(t, f.keys[20+i])
	}
	time.Sleep(50 * time.Millisecond) // the feed must NOT advance
	if fl.Stats().AppliedLSN != frozen {
		t.Fatalf("cut-off follower advanced: %d -> %d", frozen, fl.Stats().AppliedLSN)
	}
	feed.SetUpstream(f.addr)
	waitUntil(t, "post-resume catch-up", func() bool { return caughtUp(f, fl) })
}

// TestFollowerServesVerifyingClient is the end-to-end trust story: a
// verifying client sessions against the *follower*, syncs the
// certified summary stream, and fully verifies answers — the replica
// is never trusted, and its answers carry the owner's signatures.
func TestFollowerServesVerifyingClient(t *testing.T) {
	f, shutdown := newPrimary(t, 400, true)
	defer shutdown()
	fl := newTestFollower(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx, f.addr)
	waitUntil(t, "catch-up", func() bool { return caughtUp(f, fl) })

	cl := dialFollower(t, f, fl)
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	specs := []*query.Spec{
		{Rel: core.DefaultRelation, Lo: f.keys[0], Hi: f.keys[40]},
		{Rel: core.DefaultRelation, Lo: f.keys[100], Hi: f.keys[160]},
	}
	if _, err := cl.QueryPlans(specs); err != nil {
		t.Fatalf("verified query against follower: %v", err)
	}

	// Advance the primary; once the follower caught up, the client
	// re-anchors and verifies the post-update answer too.
	f.update(t, f.keys[1])
	waitUntil(t, "catch-up after update", func() bool { return caughtUp(f, fl) })
	if _, err := cl.QueryPlans(specs); err != nil {
		t.Fatalf("verified post-update query: %v", err)
	}
}

// TestFollowerAheadOfPrimaryRebootstraps: an in-memory primary that
// restarts begins its LSNs again, so a follower of the previous
// incarnation subscribes from a position past anything the new one has
// published. That position names nothing in the new history: the follower
// must be imaged again — not left unfed until the new LSNs overtake its
// old one, then fed records of a history it never held.
func TestFollowerAheadOfPrimaryRebootstraps(t *testing.T) {
	old, shutdownOld := newPrimary(t, 200, false)
	fl := newTestFollower(t, old)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx, old.addr) }()
	waitUntil(t, "catch-up", func() bool { return caughtUp(old, fl) })
	for i := 0; i < 6; i++ {
		old.update(t, old.keys[i])
	}
	waitUntil(t, "live tail", func() bool { return caughtUp(old, fl) })
	cancel()
	<-done
	shutdownOld()

	f, shutdown := newPrimary(t, 150, false)
	defer shutdown()
	if ahead, at := fl.Stats().AppliedLSN, f.src.LastLSN(); ahead <= at {
		t.Fatalf("follower at lsn %d, restarted primary at %d: test setup broken", ahead, at)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go fl.Run(ctx2, f.addr)
	waitUntil(t, "re-bootstrap onto the new history", func() bool { return caughtUp(f, fl) })
	if b := fl.Stats().Bootstraps; b != 2 {
		t.Fatalf("bootstraps = %d, want one per primary incarnation", b)
	}
	f.update(t, f.keys[3])
	waitUntil(t, "live tail of the new history", func() bool { return caughtUp(f, fl) })
	if fl.Stats().Lag != 0 || fl.Stats().PrimaryLSN != f.src.LastLSN() {
		t.Fatalf("lag %d, primary lsn %d observed; the new primary is at %d", fl.Stats().Lag, fl.Stats().PrimaryLSN, f.src.LastLSN())
	}
	cl := dialFollower(t, f, fl)
	if _, err := cl.QueryPlan(&query.Spec{Rel: core.DefaultRelation, Lo: f.keys[0], Hi: f.keys[20]}); err != nil {
		t.Fatalf("verified query against the re-imaged follower: %v", err)
	}
}

// joinFleet is a two-relation primary — "o" (every key, projection-mode)
// and "i" (every third key, with a certified filter) — feeding a replica
// that mirrors both relations behind one caching planner.
type joinFleet struct {
	rels [2]*core.Relation // o, i
	rts  [2]*wal.Runtime
	srcs [2]*replica.Source
	fls  [2]*replica.Follower
	eng  *query.Engine // the replica's
	cl   *client.Client
	ts   int64
}

var joinFleetNames = [2]string{"o", "i"}

// newJoinFleet loads the primary and starts the replica. With withLog the
// followers subscribe before the load: each is imaged with the empty
// relation, and everything after — the load and the certified filter
// included — reaches it as records.
func newJoinFleet(t *testing.T, withLog bool) *joinFleet {
	t.Helper()
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	jf := &joinFleet{ts: 1, eng: query.NewEngine()}
	for i, name := range joinFleetNames {
		var daOpts []core.DAOption
		if i == 0 {
			daOpts = append(daOpts, core.WithAttrSigning())
		}
		rel, err := cat.AddRelation(name, nil, daOpts, []core.Option{core.WithShards(4)})
		if err != nil {
			t.Fatal(err)
		}
		var store *wal.Store
		if withLog {
			if store, err = wal.Open(t.TempDir(), wal.Options{NoSync: true}); err != nil {
				t.Fatal(err)
			}
		}
		jf.rels[i], jf.rts[i] = rel, wal.NewRuntime(rel.DA, rel.QS, store, 0)
		jf.srcs[i] = replica.NewSource(jf.rts[i], replica.SourceConfig{Heartbeat: 20 * time.Millisecond})
		t.Cleanup(func() { jf.rts[i].Close() })
	}
	psrv := server.NewNetServer(jf.rels[0].QS, server.NetConfig{})
	for i, name := range joinFleetNames {
		psrv.EnableReplication(name, jf.srcs[i])
	}
	pln, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go psrv.Serve(pln)
	ctx, cancel := context.WithCancel(context.Background())
	follow := func() {
		for i, name := range joinFleetNames {
			jf.fls[i] = newRelFollower(t, name)
			go jf.fls[i].Run(ctx, pln.Addr().String())
			waitUntil(t, "the first image of "+name, func() bool { return jf.fls[i].QS() != nil })
			if err := jf.eng.AddRelation(name, jf.fls[i].QS()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if withLog {
		follow()
	}
	for i, name := range joinFleetNames {
		var recs []*core.Record
		for k := int64(1); k <= 120; k++ {
			if i == 0 || k%3 == 0 {
				recs = append(recs, &core.Record{Key: 10 * k, Attrs: [][]byte{[]byte(fmt.Sprintf("%s-%d", name, k))}})
			}
		}
		// Through Deliver, so a WAL-backed primary's log is its whole history.
		jf.deliver(t, i)(jf.rels[i].DA.Load(recs, jf.ts))
	}
	jf.certify(t)
	if !withLog {
		follow()
	}
	fsrv := server.NewNetServer(jf.fls[0].QS(), server.NetConfig{})
	fsrv.EnablePlans(jf.eng)
	fln, err := fsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(fln)
	jf.cl, err = client.Dial(fln.Addr().String(), client.Config{
		Scheme: jf.rels[0].Scheme, Pub: jf.rels[0].Pub,
		Relations: map[string]sigagg.PublicKey{"o": jf.rels[0].Pub, "i": jf.rels[1].Pub},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		jf.cl.Close()
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		fsrv.Shutdown(sctx)
		psrv.Shutdown(sctx)
	})
	return jf
}

// deliver routes relation i's next message through its runtime.
func (jf *joinFleet) deliver(t *testing.T, i int) func(*core.UpdateMsg, error) {
	return func(msg *core.UpdateMsg, err error) {
		t.Helper()
		if err == nil {
			err = jf.rts[i].Deliver(msg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// certify closes a period on both relations and re-certifies the inner
// relation's filter at the close, as authserve's writer does.
func (jf *joinFleet) certify(t *testing.T) {
	t.Helper()
	jf.ts++
	for i, rel := range jf.rels {
		jf.deliver(t, i)(rel.DA.ClosePeriod(jf.ts))
	}
	fc, err := jf.rels[1].DA.CertifyFilter(8, 8, jf.ts)
	jf.deliver(t, 1)(&core.UpdateMsg{TS: jf.ts, Filter: fc}, err)
}

func (jf *joinFleet) waitCaughtUp(t *testing.T) {
	t.Helper()
	waitUntil(t, "both relations caught up", func() bool {
		return jf.fls[0].Stats().AppliedLSN == jf.srcs[0].LastLSN() && jf.fls[1].Stats().AppliedLSN == jf.srcs[1].LastLSN()
	})
}

// TestFollowerServesJoins: a relation's certified filter is part of the
// relation, so a follower holds it — through its bootstrap image when it
// subscribed after the filter was certified, through the feed's records
// when it subscribed before — and
// a verifying client's BV and BF joins against the follower close. A
// re-certification then reaches the follower over 'W' like any message:
// the next BF answer is dated by it and the cached plan is retired.
func TestFollowerServesJoins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		withLog bool
	}{{"image", false}, {"log tail", true}} {
		t.Run(tc.name, func(t *testing.T) {
			jf := newJoinFleet(t, tc.withLog)
			jf.waitCaughtUp(t)
			for i, fl := range jf.fls {
				if st := fl.Stats(); st.Bootstraps != 1 || (st.Records == 0) == tc.withLog {
					t.Fatalf("follower of %q caught up by %+v, want the %s path", joinFleetNames[i], st, tc.name)
				}
			}
			ask := func(method join.Method) *wire.Composite {
				t.Helper()
				comp, err := jf.cl.QueryPlan(&query.Spec{Rel: "o", Lo: 100, Hi: 900, Attrs: []int{0}, Join: &query.JoinSpec{Rel: "i", Method: method}})
				if err != nil {
					t.Fatalf("verified %v join against the follower: %v", method, err)
				}
				if comp.Join == nil || len(comp.Join.Runs) == 0 || comp.Proj == nil {
					t.Fatalf("%v join answer lacks a section: %+v", method, comp)
				}
				return comp
			}
			if comp := ask(join.BV); len(comp.Join.Negatives) != 0 {
				t.Fatalf("BV join carries %d Bloom negatives", len(comp.Join.Negatives))
			}
			first := ask(join.BF)
			if len(first.Join.Negatives) == 0 || first.Join.FilterTS != jf.ts {
				t.Fatalf("BF join: %d partitions of negatives under a filter dated %d, want some under the one certified at %d",
					len(first.Join.Negatives), first.Join.FilterTS, jf.ts)
			}
			ask(join.BF) // the second request earns residency
			if again := ask(join.BF); jf.eng.Stats().Cache.Hits == 0 || again.Join.FilterTS != first.Join.FilterTS {
				t.Fatalf("the repeated BF plan was not served from the follower's answer cache (%+v)", jf.eng.Stats().Cache)
			}

			// A key the cached answer proved absent arrives, then the
			// re-certification that covers it.
			jf.ts++
			jf.deliver(t, 1)(jf.rels[1].DA.Insert(&core.Record{Key: 200, Attrs: [][]byte{[]byte("late")}}, jf.ts))
			jf.certify(t)
			jf.waitCaughtUp(t)
			invalidated := jf.eng.Stats().Cache.Invalidations
			next := ask(join.BF)
			if next.Join.FilterTS != jf.ts || next.Join.FilterTS <= first.Join.FilterTS {
				t.Fatalf("BF join after the re-certification is dated %d, want %d", next.Join.FilterTS, jf.ts)
			}
			if jf.eng.Stats().Cache.Invalidations == invalidated {
				t.Fatal("the plan cached under the old filter was served again")
			}
			if st := jf.fls[1].Stats(); st.Bootstraps != 1 {
				t.Fatalf("inner follower %+v: the re-certification must have come over 'W'", st)
			}
		})
	}
}
