package server

// The fleet soak: a two-relation primary — the default relation, which
// the writer keeps updating, and a join inner with its certified filter —
// feeding snapshot-bootstrapped follower replicas over one replication
// feed per relation, fleet-aware verifying clients failing over between
// them with joins and projections mixed into their range traffic, and a
// deliberately Byzantine replica working through the paper's whole attack
// menu — while the harness kills and restarts followers mid-traffic,
// partitions one behind its fault proxy, and holds another artificially
// lagged.
//
// The invariants are the paper's, extended to a replica set:
//
//   - every answer the harness accepts passed full verification
//     (authenticity, completeness, freshness) no matter which replica
//     served it — replicas hold no keys, so switching servers never
//     widens what a client accepts;
//   - every Byzantine serving attempt is detected AND attributed:
//     forged signatures and forked summaries quarantine the replica
//     with cryptographic evidence, replayed/rolled-back state surfaces
//     as a freshness miss on that replica, and no honest replica is
//     ever condemned;
//   - clients keep making verified progress as long as at least one
//     honest replica is reachable.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wal"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// fleetInner names the join inner relation.
const fleetInner = "i"

// The soak's size.
const (
	fleetN        = 2_000
	fleetRanges   = 64
	fleetClients  = 2 // verifying fleet clients per window (plus one auditor)
	fleetReplicas = 3 // honest followers; the Byzantine one is extra
	fleetWindow   = 500 * time.Millisecond
)

// fleetWindowResult is one fault window's outcome.
type fleetWindowResult struct {
	name, byzMode string

	accepted     int64    // answers verified before acceptance, by construction
	staleRetries int64    // honest freshness misses (protocol working)
	lagMisses    int64    // freshness misses attributed to the held replica
	detected     int64    // transport faults the clients observed
	byzDetected  int64    // attributed detections of the Byzantine replica
	byzWarm      int64    // of those, by a session that remembered the honest claim
	byzJoin      [2]int64 // forged join sections convicted: cold, warm
	plans        int64    // accepted answers that were join or projection plans
	diverged     int64    // unattributed divergence (must stay 0)

	clientFailovers, clientQuarantines uint64
}

// fleetReport is what TestRunFleetChaosShort asserts on.
type fleetReport struct {
	windows           []fleetWindowResult
	misattributed     int64  // quarantines of honest replicas (must stay 0)
	maxReplicaLag     uint64 // LSNs behind, observed on the held replica
	bootstrapsServed  uint64
	followersVerified int // honest followers whose full catalog verified post-soak
	sweepVerified     int // primary-side final sweep
}

// fleetWindows is the soak script: each window pairs one availability
// fault on an honest replica with one Byzantine behavior on the rogue
// one.
var fleetWindows = []struct{ name, byz string }{
	{"churn", "sigflip"},     // kill/restart an honest follower; byz bit-flips signatures
	{"partition", "replay"},  // partition an honest follower; byz re-serves pre-update cached answers
	{"lag", "forksum"},       // hold an honest follower lagged; byz serves a forked summary stream
	{"rollback", "rollback"}, // byz rolls its state back to the load image
}

// fleetReplica is one honest follower: feed loop, serving front end,
// and the fault proxy its clients dial through.
type fleetReplica struct {
	fl, ifl  *replica.Follower // the default relation's feed, the inner relation's
	srv      *NetServer
	serveErr chan error
	cancel   context.CancelFunc
	runDone  chan struct{}
	proxy    *faultnet.Proxy
	// feed is the default relation's replication feed: the follower dials
	// the primary through it, and cutFeed holds the replica lagged.
	feed *faultnet.Proxy
}

// fleetBench owns the fleet under test.
type fleetBench struct {
	t      *testing.T
	scheme sigagg.Scheme // bound
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey

	rt  *wal.Runtime // the primary's owner → log → server → feed pipeline
	src *replica.Source

	// The join inner: every third key of the default relation, under its
	// own key pair, pipeline and feed. The harness moves it once a window.
	ischeme sigagg.Scheme
	ipub    sigagg.PublicKey
	irt     *wal.Runtime
	isrc    *replica.Source
	its     int64
	nextIn  int // index into keys of the next key to drip into it
	keys    []int64

	srv      *NetServer // primary front end (replication + final sweep)
	serveErr chan error
	addr     string

	honest    []*fleetReplica
	byzFl     *replica.Follower
	byzFeed   *faultnet.Proxy
	byzSrv    *NetServer
	byzErr    chan error
	byzCancel context.CancelFunc
	byzDone   chan struct{}
	front     *byzFront

	earlyState *core.ServerState // load-time image the rogue replica rolls back to

	catalog       []workload.RangeQuery
	ts            int64
	misattributed int64
	maxLag        uint64
}

// runFleetChaos executes the soak and reports what it observed; an
// operation that may not fail — the writer, a fault script, a follower
// that never catches up, a final sweep — is an error.
func runFleetChaos(t *testing.T) (*fleetReport, error) {
	b := &fleetBench{t: t, ts: 2}
	defer b.teardown()
	if err := b.setup(); err != nil {
		return nil, err
	}

	rep := &fleetReport{}
	for _, w := range fleetWindows {
		win, err := b.runWindow(w.name, w.byz)
		if err != nil {
			return nil, err
		}
		rep.windows = append(rep.windows, *win)
		t.Logf("fleet: %-9s byz=%-8s accepted=%6d (plans=%5d) byz-detected=%3d stale=%4d lag-misses=%2d faults=%4d failovers=%3d quarantines=%2d",
			win.name, win.byzMode, win.accepted, win.plans, win.byzDetected, win.staleRetries, win.lagMisses,
			win.detected, win.clientFailovers, win.clientQuarantines)
	}
	rep.misattributed = b.misattributed
	rep.maxReplicaLag = b.maxLag

	var err error
	if rep.followersVerified, err = b.verifyFollowers(); err != nil {
		return nil, err
	}
	if rep.sweepVerified, err = sweepRuntime(b.rt, b.scheme, b.pub, b.addr, b.catalog, &b.ts); err != nil {
		return nil, err
	}
	rep.bootstrapsServed = b.src.Stats().Bootstraps + b.isrc.Stats().Bootstraps
	return rep, nil
}

// setup builds the primary (durable pipeline + replication hub), the
// honest follower fleet behind fault proxies, and the Byzantine
// follower behind its tampering front.
func (b *fleetBench) setup() error {
	raw := bas.New(0)
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		return err
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		return err
	}
	b.scheme, b.priv, b.pub = bound, priv, pub

	// Projection-mode, as authserve's first relation is: the cohort's plans
	// project its attribute.
	da, err := core.NewDataAggregator(b.scheme, b.priv, core.DefaultConfig(), core.WithAttrSigning())
	if err != nil {
		return err
	}
	store, err := wal.Open(b.t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	b.rt = wal.NewRuntime(da, core.NewQueryServer(b.scheme, core.WithShards(16)), store, 0)

	recs := workload.Records(workload.Config{N: fleetN, RecLen: 256, Seed: soakSeed})
	keys := workload.Keys(recs)
	msg, err := da.Load(recs, 1)
	if err != nil {
		return err
	}
	// One certified period rides with the load, so every session that
	// anchors holds summary #1 — the fork-detection baseline. The load
	// lives in the runtime's first snapshot, not the log, so every
	// follower must come up via the 'B' bootstrap path.
	b.ts++
	closed, err := da.ClosePeriod(b.ts)
	if err != nil {
		return err
	}
	if err := b.rt.Load(msg, closed); err != nil {
		return err
	}
	b.catalog = workload.NewHotRangeCatalog(keys, fleetRanges, soakSF, soakSeed+101)
	b.earlyState = b.rt.QS.Snapshot()
	if err := b.setupInner(keys); err != nil {
		return err
	}

	srcCfg := replica.SourceConfig{Heartbeat: 25 * time.Millisecond, WriteTimeout: 2 * time.Second}
	b.src, b.isrc = replica.NewSource(b.rt, srcCfg), replica.NewSource(b.irt, srcCfg)
	b.srv = NewNetServer(b.rt.QS, NetConfig{
		MaxConns:    8 * (fleetClients + 2*fleetReplicas + 4),
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
	})
	eng := query.NewEngine()
	if err := eng.AddRelation(fleetInner, b.irt.QS); err != nil {
		return err
	}
	b.srv.EnablePlans(eng)
	b.srv.EnableReplication(core.DefaultRelation, b.src)
	b.srv.EnableReplication(fleetInner, b.isrc)
	ln, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	b.addr = ln.Addr().String()
	b.serveErr = make(chan error, 1)
	srv := b.srv
	go func(ch chan error) { ch <- srv.Serve(ln) }(b.serveErr)

	for i := 0; i < fleetReplicas; i++ {
		r, err := b.startReplica()
		if err != nil {
			return err
		}
		if r.proxy, err = faultnet.NewProxy(r.srv.Addr().String(), faultnet.Profile{}, soakSeed+int64(i)+7); err != nil {
			return err
		}
		b.honest = append(b.honest, r)
	}
	byz, err := b.startReplica()
	if err != nil {
		return err
	}
	b.byzFl, b.byzFeed, b.byzSrv, b.byzErr = byz.fl, byz.feed, byz.srv, byz.serveErr
	b.byzCancel, b.byzDone = byz.cancel, byz.runDone
	if b.front, err = newByzFront(byz.srv.Addr().String(), b.scheme, b.priv); err != nil {
		return err
	}

	for _, r := range append(b.honest[:len(b.honest):len(b.honest)], byz) {
		if err := b.waitCaughtUp(r, 10*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// setupInner builds the join inner — every third key of the default
// relation under a key pair of its own — with its first period closed and
// its filter certified inside the runtime's first image, so a follower's
// bootstrap brings all three.
func (b *fleetBench) setupInner(keys []int64) error {
	raw := bas.New(0)
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		return err
	}
	if b.ischeme, err = sigagg.Bind(raw, pub); err != nil {
		return err
	}
	b.ipub, b.keys = pub, keys
	da, err := core.NewDataAggregator(b.ischeme, priv, core.DefaultConfig())
	if err != nil {
		return err
	}
	store, err := wal.Open(b.t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	b.irt = wal.NewRuntime(da, core.NewQueryServer(b.ischeme, core.WithShards(16)), store, 0)
	var recs []*core.Record
	for i := 0; i < len(keys); i += 3 {
		recs = append(recs, &core.Record{Key: keys[i], Attrs: [][]byte{[]byte("inner")}})
	}
	load, err := da.Load(recs, 1)
	if err != nil {
		return err
	}
	b.its, b.nextIn = 2, 1
	closed, err := da.ClosePeriod(b.its)
	if err != nil {
		return err
	}
	fc, err := da.CertifyFilter(64, 8, b.its)
	if err != nil {
		return err
	}
	return b.irt.Load(load, closed, &core.UpdateMsg{TS: b.its, Filter: fc})
}

// moveInner is the inner relation's write traffic, once a window: a key
// the cached joins proved absent arrives, a period closes, and the owner
// re-certifies the filter over the new key set — three records on its
// feed, the last retiring every follower's cached BF plans.
func (b *fleetBench) moveInner() error {
	da := b.irt.DA
	b.its++
	msg, err := da.Insert(&core.Record{Key: b.keys[b.nextIn], Attrs: [][]byte{[]byte("late")}}, b.its)
	if err != nil {
		return err
	}
	b.nextIn += 3
	if err := b.irt.Deliver(msg); err != nil {
		return err
	}
	b.its++
	if msg, err = da.ClosePeriod(b.its); err != nil {
		return err
	}
	if err := b.irt.Deliver(msg); err != nil {
		return err
	}
	fc, err := da.CertifyFilter(64, 8, b.its)
	if err != nil {
		return err
	}
	return b.irt.Deliver(&core.UpdateMsg{TS: b.its, Filter: fc})
}

// basByName is the replicas' scheme lookup: the fleet signs under bas.
func basByName(name string) (sigagg.Scheme, error) {
	if name != "bas" {
		return nil, fmt.Errorf("the fleet signs under bas, not %q", name)
	}
	return bas.New(0), nil
}

// startReplica boots one replica: a feed loop per relation against the
// primary and, once both relations' first images are in, a serving front
// end over the planner both followers' QueryServers are registered with.
func (b *fleetBench) startReplica() (*fleetReplica, error) {
	cfg := replica.FollowerConfig{
		QSOpts:      []core.Option{core.WithShards(8)},
		ReadTimeout: 2 * time.Second,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	}
	fl := replica.NewFollower(cfg, basByName)
	cfg.Rel = fleetInner
	ifl := replica.NewFollower(cfg, basByName)
	feed, err := faultnet.NewProxy(b.addr, faultnet.Profile{}, soakSeed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		innerDone := make(chan struct{})
		go func() {
			defer close(innerDone)
			ifl.Run(ctx, b.addr)
		}()
		fl.Run(ctx, feed.Addr())
		<-innerDone
		feed.Close()
	}()
	fail := func(err error) (*fleetReplica, error) {
		cancel()
		<-runDone
		return nil, err
	}
	for _, f := range []*replica.Follower{fl, ifl} {
		select {
		case <-f.Ready():
		case <-time.After(10 * time.Second):
			return fail(fmt.Errorf("no first image: %v", f.LastErr()))
		}
	}
	eng := query.NewEngine()
	if err := eng.AddRelation(fleetInner, ifl.QS()); err != nil {
		return fail(err)
	}
	srv := NewNetServer(fl.QS(), NetConfig{
		MaxConns:    8 * (fleetClients + 2),
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
	})
	srv.EnablePlans(eng)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return &fleetReplica{fl: fl, ifl: ifl, feed: feed, srv: srv, serveErr: serveErr, cancel: cancel, runDone: runDone}, nil
}

// killReplica tears an honest follower down the unclean way: feed loop
// cancelled, serving connections cut mid-flight, proxy left pointing
// into the void.
func (b *fleetBench) killReplica(i int) {
	r := b.honest[i]
	r.cancel()
	<-r.runDone
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.srv.Shutdown(ctx)
	<-r.serveErr
}

// restartReplica brings a killed follower back as a fresh process
// image: empty state, so it must re-bootstrap from the primary, and a
// new serving socket the old proxy is re-pointed at.
func (b *fleetBench) restartReplica(i int) error {
	fresh, err := b.startReplica()
	if err != nil {
		return err
	}
	r := b.honest[i]
	r.fl, r.ifl, r.feed, r.srv, r.serveErr = fresh.fl, fresh.ifl, fresh.feed, fresh.srv, fresh.serveErr
	r.cancel, r.runDone = fresh.cancel, fresh.runDone
	r.proxy.SetUpstream(fresh.srv.Addr().String())
	r.proxy.DropAll()
	return nil
}

// waitCaughtUp blocks until r has applied everything both relations'
// sources have published. Only meaningful while the writers are stopped.
func (b *fleetBench) waitCaughtUp(r *fleetReplica, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		if r.fl.Stats().AppliedLSN >= b.src.LastLSN() && r.ifl.Stats().AppliedLSN >= b.isrc.LastLSN() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: replica stuck at LSNs %d / %d, primary at %d / %d",
				r.fl.Stats().AppliedLSN, r.ifl.Stats().AppliedLSN, b.src.LastLSN(), b.isrc.LastLSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (b *fleetBench) byzAddr() string         { return b.front.Addr() }
func (b *fleetBench) honestAddr(i int) string { return b.honest[i%len(b.honest)].proxy.Addr() }

// fleetAddrs is every client's replica set: honest proxies first (so
// sessions anchor through an honest replica), the Byzantine front
// last.
func (b *fleetBench) fleetAddrs() []string {
	addrs := make([]string, 0, len(b.honest)+1)
	for _, r := range b.honest {
		addrs = append(addrs, r.proxy.Addr())
	}
	return append(addrs, b.front.Addr())
}

func (b *fleetBench) clientCfg(seed int64) client.Config {
	return client.Config{
		Scheme:         b.scheme,
		Pub:            b.pub,
		Relations:      map[string]sigagg.PublicKey{fleetInner: b.ipub},
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		Retry: client.RetryPolicy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    25 * time.Millisecond,
			MaxElapsed:  fleetWindow,
			Seed:        seed,
		},
	}
}

// periodEvery is roughly how long the writer takes to certify a new
// ρ-period — the wait between Byzantine staleness probes.
func (b *fleetBench) periodEvery() time.Duration {
	return soakSummaryEvery * soakUpdateEvery
}

// fleetSpec is shape i of the cohort's plan mix over one catalog range:
// the bare range, a BF join with a projection, a BV join, a projection.
func fleetSpec(i int, lo, hi int64) *query.Spec {
	spec := &query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi}
	switch i % 4 {
	case 1:
		spec.Attrs, spec.Join = []int{0}, &query.JoinSpec{Rel: fleetInner, Method: join.BF}
	case 2:
		spec.Join = &query.JoinSpec{Rel: fleetInner, Method: join.BV}
	case 3:
		spec.Attrs = []int{0}
	}
	return spec
}

type fleetClientResult struct {
	accepted    int64
	plans       int64    // of those, join or projection plans
	stale       int64    // freshness misses on honest replicas (retried)
	lagMiss     int64    // freshness misses attributed to the held replica
	byzStale    int64    // freshness misses attributed to the Byzantine front
	byzDetected int64    // quarantine-class convictions of the Byzantine front
	byzWarm     int64    // of those, by a session whose memo held the honest claim
	byzJoin     [2]int64 // of those, convictions for a forged join section: cold, warm
	detected    int64    // transport faults observed
	diverged    int64    // unattributed divergence (hard failure)
	stats       client.Stats
	quar        map[string]error
	err         error
}

// runWindow drives one fault window: the writer mutating state, the
// fault script working an honest replica over, a cohort of fleet
// clients spread across the replicas, and one auditor session probing
// the Byzantine front.
func (b *fleetBench) runWindow(name, byz string) (*fleetWindowResult, error) {
	switch byz {
	case "sigflip":
		b.front.SetMode(byzSigFlip)
	case "replay":
		b.front.SetMode(byzReplay)
	case "forksum":
		b.front.SetMode(byzForkSum)
	default:
		b.front.SetMode(byzNone)
	}
	defer b.front.SetMode(byzNone)

	win := &fleetWindowResult{name: name, byzMode: byz}
	if err := b.moveInner(); err != nil {
		return nil, fmt.Errorf("server: inner relation writer: %w", err)
	}
	stopWriter := startHotWriter(b.rt, b.catalog, soakSeed+999+int64(len(name)), &b.ts)
	deadline := time.Now().Add(fleetWindow)

	var faultErr error
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
		faultErr = b.faultScript(name)
	}()

	results := make([]fleetClientResult, fleetClients+1)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.runFleetClient(c, deadline, &results[c])
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.runAuditor(name, deadline, &results[fleetClients])
	}()
	wg.Wait()
	<-faultDone
	werr := stopWriter()

	if name == "lag" {
		// Writer stopped: the held replica's distance to the primary is
		// now stable. Record it, then let it catch back up.
		r := b.honest[2%len(b.honest)]
		if lag := b.src.LastLSN() - r.fl.Stats().AppliedLSN; lag > b.maxLag {
			b.maxLag = lag
		}
		r.feed.SetUpstream(b.addr)
	}
	if werr != nil {
		return nil, werr
	}
	if faultErr != nil {
		return nil, fmt.Errorf("server: fault script %q: %w", name, faultErr)
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, fmt.Errorf("server: fleet client %d in window %q: %w", i, name, r.err)
		}
		win.accepted += r.accepted
		win.staleRetries += r.stale
		win.lagMisses += r.lagMiss
		win.detected += r.detected
		win.diverged += r.diverged
		win.byzDetected += r.byzDetected + r.byzStale
		win.byzWarm += r.byzWarm
		win.byzJoin[0] += r.byzJoin[0]
		win.byzJoin[1] += r.byzJoin[1]
		win.plans += r.plans
		win.clientFailovers += r.stats.Failovers
		win.clientQuarantines += r.stats.Quarantines
		for addr, cause := range r.quar {
			if addr != b.byzAddr() {
				b.misattributed++
				b.t.Logf("fleet: MISATTRIBUTED quarantine of %s: %v", addr, cause)
			}
		}
	}
	return win, nil
}

// faultScript is the availability fault injected into each window.
func (b *fleetBench) faultScript(name string) error {
	w := fleetWindow
	switch name {
	case "churn":
		time.Sleep(w / 3)
		b.killReplica(0)
		time.Sleep(w / 3)
		return b.restartReplica(0)
	case "partition":
		r := b.honest[1%len(b.honest)]
		time.Sleep(w / 4)
		r.proxy.SetUpstream("127.0.0.1:1")
		r.proxy.DropAll()
		time.Sleep(w / 2)
		r.proxy.SetUpstream(r.srv.Addr().String())
		r.proxy.DropAll()
		return nil
	case "lag":
		time.Sleep(w / 4)
		cutFeed(b.honest[2%len(b.honest)].feed)
		return nil
	case "rollback":
		// The rogue replica freezes its feed and reinstates the
		// load-time image: a rollback attack, served with a straight
		// face (the front passes bytes through untouched).
		cutFeed(b.byzFeed)
		return b.byzFl.QS().Restore(b.earlyState)
	}
	return nil
}

// cutFeed drops a follower's feed and refuses its redials (nothing
// listens on port 1): the follower keeps serving what it holds, an ever
// staler catalog, until the feed is re-pointed at the primary.
func cutFeed(feed *faultnet.Proxy) {
	feed.SetUpstream("127.0.0.1:1")
	feed.DropAll()
}

// runFleetClient is one cohort session: fleet-dialed, spread across
// the honest replicas, querying the hot catalog and accepting only
// verified answers. Failover, quarantine, and re-anchoring all happen
// inside the client; the harness only classifies outcomes.
func (b *fleetBench) runFleetClient(id int, deadline time.Time, res *fleetClientResult) {
	cl, err := client.DialFleet(b.fleetAddrs(), b.clientCfg(int64(id)+1))
	if err != nil {
		res.detected++
		return
	}
	defer func() { res.stats = cl.Stats(); res.quar = cl.Quarantined(); cl.Close() }()
	if _, err := cl.SyncSummaries(0); err != nil {
		res.detected++
		if errors.Is(err, client.ErrDiverged) {
			res.diverged++
			return
		}
	}
	// Spread the cohort so every window has sessions on the replica its
	// fault targets.
	if home := b.honestAddr(id); home != cl.CurrentAddr() {
		if err := cl.Reconnect(home); err != nil {
			res.detected++
		}
	}
	gen := workload.NewHotRangeGen(b.catalog, soakTheta, soakSeed+1000*int64(id+1))
	specs := make([]*query.Spec, soakPipeline)
	staleStreak, hops := 0, 0
	for batch := 0; time.Now().Before(deadline); batch++ {
		// Every other batch is range selections alone; the rest pipelines
		// one plan of each shape.
		for i := range specs {
			q := gen.Next()
			if batch%2 == 0 {
				specs[i] = leaf(q.Lo, q.Hi)
			} else {
				specs[i] = fleetSpec(batch+i, q.Lo, q.Hi)
			}
		}
		_, err := cl.QueryPlans(specs)
		switch {
		case err == nil:
			res.accepted += int64(len(specs))
			if batch%2 != 0 {
				res.plans += int64(len(specs)) - 1 // one shape in four is the bare range
			}
			staleStreak = 0
		case errors.Is(err, client.ErrAllQuarantined):
			res.err = err
			return
		case errors.Is(err, freshness.ErrStale):
			if cl.CurrentAddr() == b.byzAddr() {
				res.byzStale++
			} else {
				res.stale++
			}
			// A replica that stays stale is not making this session
			// progress: hop to another member by hand.
			if staleStreak++; staleStreak >= 3 {
				staleStreak = 0
				hops++
				if rerr := cl.Reconnect(b.honestAddr(id + hops)); rerr != nil {
					res.detected++
				}
			}
		case errors.Is(err, client.ErrDiverged):
			res.diverged++
			return
		default:
			res.detected++
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// runAuditor is the per-window probe session: it deliberately visits
// the Byzantine front (and, in the lag window, the held replica) and
// records the evidence the protocol produces, then spends the rest of
// the window as honest verified traffic.
func (b *fleetBench) runAuditor(name string, deadline time.Time, res *fleetClientResult) {
	cl, err := client.DialFleet(b.fleetAddrs(), b.clientCfg(7777))
	if err != nil {
		res.detected++
		return
	}
	res.quar = map[string]error{}
	defer func() {
		res.stats = cl.Stats()
		for addr, cause := range cl.Quarantined() {
			res.quar[addr] = cause
		}
		cl.Close()
	}()
	if _, err := cl.SyncSummaries(0); err != nil {
		res.err = err
		return
	}
	gen := workload.NewHotRangeGen(b.catalog, soakTheta, soakSeed+7777)
	switch name {
	case "churn":
		// A forged join section first, then a forged scan aggregate; each
		// probe but the first from a session of its own, since a session
		// that convicted the forger cannot visit it again.
		b.auditTamper(cl, gen, res, deadline, false, 1)
		b.auditTamperFresh(gen, res, deadline, true, 1)
		b.auditTamperFresh(gen, res, deadline, false, 0)
		b.auditTamperFresh(gen, res, deadline, true, 0)
	case "partition":
		b.auditStaleServer(cl, b.byzAddr(), &res.byzStale, res, deadline)
	case "lag":
		b.auditFork(cl, res, deadline)
		b.auditStaleServer(cl, b.honestAddr(2), &res.lagMiss, res, deadline)
	case "rollback":
		b.auditStaleServer(cl, b.byzAddr(), &res.byzStale, res, deadline)
	}
	// Remaining window: honest verified traffic from the first healthy
	// replica.
	if err := cl.Reconnect(b.honestAddr(0)); err != nil {
		res.detected++
	}
	for time.Now().Before(deadline) && res.err == nil {
		q := gen.Next()
		_, err := cl.QueryPlan(leaf(q.Lo, q.Hi))
		switch {
		case err == nil:
			res.accepted++
		case errors.Is(err, freshness.ErrStale):
			res.stale++
		case errors.Is(err, client.ErrDiverged):
			res.diverged++
			return
		default:
			res.detected++
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// auditTamper probes a signature-forging replica: one query through it —
// the plan of the given shape (fleetSpec), so with shape 1 the flipped bit
// sits in the join section — must convict it with verification-failure
// evidence and complete, verified, on an honest replica. Cold, the forgery
// is the first answer to that query the session sees; warm, the session
// first fetches and verifies the honest answer from an honest replica, so
// that its verifier remembers the very claims the forger then flips a bit
// of one of.
func (b *fleetBench) auditTamper(cl *client.Client, gen *workload.HotRangeGen, res *fleetClientResult, deadline time.Time, warm bool, shape int) {
	for time.Now().Before(deadline) {
		if cause, ok := cl.Quarantined()[b.byzAddr()]; ok {
			if errors.Is(cause, sigagg.ErrVerify) || errors.Is(cause, wire.ErrCorrupt) {
				res.byzDetected++
				if warm {
					res.byzWarm++
				}
				if shape != 0 && warm {
					res.byzJoin[1]++
				} else if shape != 0 {
					res.byzJoin[0]++
				}
			}
			return
		}
		q := gen.Next()
		spec := fleetSpec(shape, q.Lo, q.Hi)
		if warm {
			if err := cl.Reconnect(b.honestAddr(0)); err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if _, err := cl.QueryPlan(spec); err != nil {
				res.detected++ // the churn window's own faults; try again
				continue
			}
			res.accepted++
		}
		if err := cl.Reconnect(b.byzAddr()); err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		switch _, err := cl.QueryPlan(spec); {
		case err == nil:
			res.accepted++ // hop already landed it on an honest replica
		case errors.Is(err, freshness.ErrStale):
			res.stale++
		default:
			res.detected++
		}
	}
}

// auditTamperFresh is auditTamper from a session of its own.
func (b *fleetBench) auditTamperFresh(gen *workload.HotRangeGen, res *fleetClientResult, deadline time.Time, warm bool, shape int) {
	cl, err := client.DialFleet(b.fleetAddrs(), b.clientCfg(7778))
	if err != nil {
		res.detected++
		return
	}
	defer func() {
		for addr, cause := range cl.Quarantined() {
			res.quar[addr] = cause
		}
		cl.Close()
	}()
	if _, err := cl.SyncSummaries(0); err != nil {
		res.detected++
		return
	}
	b.auditTamper(cl, gen, res, deadline, warm, shape)
}

// auditFork probes a replica serving a forked summary stream: a
// back-history sync through it must surface authenticated divergence
// and quarantine it.
func (b *fleetBench) auditFork(cl *client.Client, res *fleetClientResult, deadline time.Time) {
	for time.Now().Before(deadline) {
		if cause, ok := cl.Quarantined()[b.byzAddr()]; ok {
			if errors.Is(cause, client.ErrDiverged) {
				res.byzDetected++
			}
			return
		}
		if err := cl.Reconnect(b.byzAddr()); err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		// The full back-history fetch covers summary #1 — the forked
		// one — which the session verifiably holds.
		if _, err := cl.SyncSummaries(0); err != nil && !errors.Is(err, client.ErrDiverged) &&
			!errors.Is(err, client.ErrAllQuarantined) {
			res.detected++
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// auditStaleServer probes a replica expected to serve provably-old
// state (a replayer, a rolled-back rogue, or an honestly lagging
// follower): it re-anchors through an up-to-date replica, queries the
// target, counts the freshness miss, and proves the miss is retryable
// by completing the same query against a current replica. The query is a
// BF join with a projection, so what a replayer replays is a composite
// with every section.
func (b *fleetBench) auditStaleServer(cl *client.Client, target string, miss *int64, res *fleetClientResult, deadline time.Time) {
	q := b.catalog[0] // the hottest range: re-certified fastest
	spec := fleetSpec(1, q.Lo, q.Hi)
	for time.Now().Before(deadline) {
		// Learn the newest certified summaries from an honest replica.
		if err := cl.Reconnect(b.honestAddr(0)); err != nil {
			res.detected++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if _, err := cl.SyncSummaries(0); err != nil {
			res.err = err
			return
		}
		if err := cl.Reconnect(target); err != nil {
			res.detected++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		switch _, err := cl.QueryPlan(spec); {
		case errors.Is(err, freshness.ErrStale) && cl.CurrentAddr() == target:
			*miss++
			// The miss is retryable: the same query against a current
			// replica succeeds and verifies.
			if rerr := cl.Reconnect(b.honestAddr(0)); rerr == nil {
				if _, qerr := cl.QueryPlan(spec); qerr == nil {
					res.accepted++
					return
				}
			}
		case err == nil:
			// The target's copy of this range is still current (or the
			// first probe seeded the replayer's cache); give the writer
			// a period to move the world on.
			res.accepted++
		default:
			res.detected++
		}
		time.Sleep(b.periodEvery())
	}
}

// verifyFollowers waits for every honest follower to drain its feed,
// then runs a full-catalog verified sweep against each one directly —
// replicated state must be indistinguishable from the primary's to a
// verifying client.
func (b *fleetBench) verifyFollowers() (int, error) {
	verified := 0
	for i, r := range b.honest {
		if err := b.waitCaughtUp(r, 10*time.Second); err != nil {
			return verified, fmt.Errorf("server: follower %d never caught up: %w", i, err)
		}
		cl, err := client.Dial(r.srv.Addr().String(), client.Config{
			Scheme: b.scheme, Pub: b.pub, Relations: map[string]sigagg.PublicKey{fleetInner: b.ipub},
			DialTimeout: 2 * time.Second, RequestTimeout: 5 * time.Second,
		})
		if err != nil {
			return verified, err
		}
		if _, err := cl.SyncSummaries(0); err != nil {
			cl.Close()
			return verified, err
		}
		if _, err := sweepCatalog(cl, b.catalog); err != nil {
			cl.Close()
			return verified, fmt.Errorf("server: follower %d failed verification: %w", i, err)
		}
		// And the hottest ranges again as plans of every shape, against
		// the inner relation this follower mirrored beside the default one.
		for k, q := range b.catalog[:8] {
			if _, err := cl.QueryPlan(fleetSpec(k, q.Lo, q.Hi)); err != nil {
				cl.Close()
				return verified, fmt.Errorf("server: follower %d failed plan verification: %w", i, err)
			}
		}
		cl.Close()
		verified++
	}
	return verified, nil
}

// teardown releases the fleet.
func (b *fleetBench) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if b.front != nil {
		b.front.Close()
	}
	if b.byzCancel != nil {
		b.byzCancel()
		<-b.byzDone
	}
	if b.byzSrv != nil {
		b.byzSrv.Shutdown(ctx)
		<-b.byzErr
	}
	for _, r := range b.honest {
		r.cancel()
		<-r.runDone
		r.srv.Shutdown(ctx)
		<-r.serveErr
		r.proxy.Close()
	}
	if b.srv != nil {
		b.srv.Shutdown(ctx)
		if b.serveErr != nil {
			<-b.serveErr
		}
	}
	for _, rt := range []*wal.Runtime{b.rt, b.irt} {
		if rt != nil {
			rt.Close()
		}
	}
}

// ---------------------------------------------------------------------
// The Byzantine front: a frame-aware relay in front of an otherwise
// healthy follower, so everything it sends is syntactically perfect
// protocol and only the client's cryptography can catch it.

type byzMode int

const (
	byzNone    byzMode = iota
	byzSigFlip         // flip a bit in each answer's aggregate signature
	byzReplay          // re-serve captured responses, keyed by the request (a query's by its plan)
	byzForkSum         // serve a validly-signed fork of certified summary #1
)

type byzFront struct {
	ln       net.Listener
	upstream string
	scheme   sigagg.Scheme
	priv     sigagg.PrivateKey

	mu    sync.Mutex
	mode  byzMode
	cache map[string][]byte
	flips int // signature flips so far: where the next lands rotates with it
}

func newByzFront(upstream string, scheme sigagg.Scheme, priv sigagg.PrivateKey) (*byzFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &byzFront{ln: ln, upstream: upstream, scheme: scheme, priv: priv, cache: make(map[string][]byte)}
	go f.acceptLoop()
	return f, nil
}

func (f *byzFront) Addr() string { return f.ln.Addr().String() }

func (f *byzFront) SetMode(m byzMode) {
	f.mu.Lock()
	f.mode = m
	f.cache = make(map[string][]byte)
	f.mu.Unlock()
}

func (f *byzFront) Close() { f.ln.Close() }

func (f *byzFront) acceptLoop() {
	for {
		down, err := f.ln.Accept()
		if err != nil {
			return
		}
		go f.serve(down)
	}
}

// serve relays one client session in request/response lock-step.
func (f *byzFront) serve(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", f.upstream)
	if err != nil {
		return
	}
	defer up.Close()
	var req, resp []byte
	for {
		if req, err = wire.ReadFrame(down, req, 0); err != nil {
			return
		}
		key := replayKey(req)
		f.mu.Lock()
		mode := f.mode
		var replayed []byte
		if mode == byzReplay {
			replayed = f.cache[key]
		}
		f.mu.Unlock()
		if replayed != nil {
			// Pure replay: the upstream is never asked; the client gets
			// yesterday's truth, faithfully signed.
			if err := wire.WriteFrame(down, replayed); err != nil {
				return
			}
			continue
		}
		if mode == byzSigFlip {
			// A forger needs an answer to forge: it asks the upstream for the
			// whole one, not whether the session's held answer stands.
			if plan, since, held, err := wire.DecodePlanReq(req, nil); err == nil && held != 0 {
				req = wire.AppendPlanReq(req[:0:0], plan, since, 0)
			}
		}
		if err := wire.WriteFrame(up, req); err != nil {
			return
		}
		if resp, err = wire.ReadFrame(up, resp, 0); err != nil {
			return
		}
		if mode == byzReplay {
			f.mu.Lock()
			if _, dup := f.cache[key]; !dup {
				f.cache[key] = append([]byte(nil), resp...)
			}
			f.mu.Unlock()
		}
		if err := wire.WriteFrame(down, f.mutate(mode, resp)); err != nil {
			return
		}
	}
}

// replayKey canonicalizes a request for the replay cache. Queries key
// by the plan alone: the session's summary-delta cursor (sinceSeq)
// varies between otherwise-identical probes, and a real replayer answers
// the same question with yesterday's frame regardless of what the asker
// claims to hold.
func replayKey(req []byte) string {
	if plan, _, _, err := wire.DecodePlanReq(req, nil); err == nil {
		return "P:" + string(plan)
	}
	return string(req)
}

// mutate applies the mode's forgery to one response frame. The forgeries
// are written against the composite, so they apply to whatever plan the
// frame answers: the signature flip lands on the scan's aggregate or — in
// a composite with a join section — inside that: a run's aggregate and a
// listed partition's certification, in turn; the fork lands on the default
// relation's tail when it carries summary #1 (the front holds that
// relation's key only).
func (f *byzFront) mutate(mode byzMode, frame []byte) []byte {
	kind, err := wire.Kind(frame)
	if err != nil {
		return frame
	}
	switch {
	case (mode == byzSigFlip || mode == byzForkSum) && kind == wire.KindComposite:
		comp, err := wire.DecodeComposite(frame)
		if err != nil {
			return frame
		}
		if mode == byzSigFlip {
			if comp.Outer == nil || len(comp.Outer.Agg) == 0 {
				return frame
			}
			comp.Outer.Agg[0] ^= 0x01
		} else {
			forged := false
			for i := range comp.Tails {
				forged = f.forge(comp.Tails[i].Summaries) || forged
			}
			if !forged {
				return frame
			}
		}
		out, err := wire.AppendCompositeCore(nil, comp)
		if err != nil {
			return frame
		}
		return wire.AppendRelTails(out, comp.Tails)
	case mode == byzForkSum && kind == wire.KindSummaries:
		sums, err := wire.DecodeSummaries(frame)
		if err != nil || !f.forge(sums) {
			return frame
		}
		return wire.AppendSummaries(nil, sums)
	default:
		return frame
	}
}

// forge rewrites certified summary #1 — which every anchored session
// holds — to a different period boundary and re-signs it with the
// owner's key (the harness has it; a real adversary with a stolen key
// could mint exactly this fork). Only seq 1 is ever forked so the
// forgery always collides with held state and is detected as
// authenticated divergence, never silently ingested.
func (f *byzFront) forge(sums []freshness.Summary) bool {
	for i := range sums {
		if sums[i].Seq != 1 {
			continue
		}
		s := &sums[i]
		s.TS += 7
		d := s.Digest()
		sig, err := f.scheme.Sign(f.priv, d[:])
		if err != nil {
			return false
		}
		s.Sig = sig
		return true
	}
	return false
}

// TestRunFleetChaosShort drives the fleet soak end to end and asserts
// its invariants: every window makes verified progress, every Byzantine
// mode is detected and attributed, no honest replica is blamed, the
// availability faults really happened (a failover, a lag-induced
// freshness miss, measurable lag, every follower bootstrapped both
// relations from an image), joins and projections were served by the
// fleet in every window and a forged join section was convicted cold and
// warm, and the final follower and primary sweeps pass.
func TestRunFleetChaosShort(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak takes a few seconds")
	}
	rep, err := runFleetChaos(t)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.windows) != len(fleetWindows) {
		t.Fatalf("ran %d windows, want %d", len(rep.windows), len(fleetWindows))
	}
	for _, win := range rep.windows {
		if win.accepted == 0 {
			t.Errorf("window %q accepted nothing — no progress with honest replicas up", win.name)
		}
		if win.byzDetected == 0 {
			t.Errorf("window %q: Byzantine mode %q was never detected", win.name, win.byzMode)
		}
		if win.plans == 0 {
			t.Errorf("window %q: no join or projection plan was accepted from the fleet", win.name)
		}
		if win.name == "churn" && win.byzWarm == 0 {
			t.Error("churn window: no session that remembered the honest claim convicted the signature forger")
		}
		if win.name == "churn" && (win.byzJoin[0] == 0 || win.byzJoin[1] == 0) {
			t.Errorf("churn window: a forged join section was convicted %d times cold and %d warm, want both", win.byzJoin[0], win.byzJoin[1])
		}
		if win.diverged != 0 {
			t.Errorf("window %q: %d unattributed divergence events", win.name, win.diverged)
		}
		if win.name == "churn" && win.clientFailovers == 0 {
			t.Error("churn window killed a replica but no client failed over")
		}
		if win.name == "lag" && win.lagMisses == 0 {
			t.Error("lag window: the held replica never produced a freshness miss")
		}
	}
	if rep.misattributed != 0 {
		t.Errorf("%d honest replicas were quarantined — misattributed blame", rep.misattributed)
	}
	if rep.maxReplicaLag == 0 {
		t.Error("the held replica never showed measurable lag")
	}
	// every initial follower, the rogue one, and the churn restart must
	// all have come up through the snapshot-bootstrap path, for each of the
	// two relations
	if want := uint64(2 * (fleetReplicas + 2)); rep.bootstrapsServed < want {
		t.Errorf("only %d bootstrap images served, want >= %d", rep.bootstrapsServed, want)
	}
	if rep.followersVerified != fleetReplicas || rep.sweepVerified == 0 {
		t.Errorf("final sweeps incomplete: %d followers, %d primary answers verified", rep.followersVerified, rep.sweepVerified)
	}
}
