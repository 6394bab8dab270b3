package server

// The fleet soak: a primary feeding snapshot-bootstrapped follower
// replicas over the replication protocol, fleet-aware verifying
// clients failing over between them, and a deliberately Byzantine
// replica working through the paper's whole attack menu — while the
// harness kills and restarts followers mid-traffic, partitions one
// behind its fault proxy, and holds another artificially lagged.
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
	"os"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/freshness"
	"authdb/internal/replica"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// FleetConfig sizes one fleet soak.
type FleetConfig struct {
	Scheme   sigagg.Scheme // raw (unbound) scheme
	N        int           // relation size
	Ranges   int           // hot-range catalog size
	SF       float64       // selectivity factor
	Theta    float64       // zipf exponent (>1)
	Clients  int           // verifying fleet clients per window
	Pipeline int           // queries pipelined per batch
	Replicas int           // honest followers (>= 2; the Byzantine one is extra)

	Window       time.Duration // per fault window
	UpdateEvery  time.Duration // primary writer cadence
	SummaryEvery int           // close a ρ-period every k updates
	Seed         int64
	Check        bool // full verification sweeps at the end
}

// DefaultFleetConfig returns a soak that finishes in a few seconds on
// one core.
func DefaultFleetConfig(scheme sigagg.Scheme) FleetConfig {
	return FleetConfig{
		Scheme:       scheme,
		N:            20_000,
		Ranges:       256,
		SF:           0.0005,
		Theta:        1.07,
		Clients:      3,
		Pipeline:     4,
		Replicas:     3,
		Window:       1200 * time.Millisecond,
		UpdateEvery:  2 * time.Millisecond,
		SummaryEvery: 20,
		Seed:         1,
		Check:        true,
	}
}

// FleetWindow is one fault window's outcome.
type FleetWindow struct {
	Name    string `json:"name"`
	ByzMode string `json:"byz_mode"`

	Accepted     int64 `json:"answers_accepted"` // verified before acceptance, by construction
	StaleRetries int64 `json:"stale_retries"`    // honest freshness misses (protocol working)
	LagMisses    int64 `json:"lag_freshness_misses,omitempty"`
	Detected     int64 `json:"faults_detected"` // transport faults the clients observed
	ByzDetected  int64 `json:"byz_detected"`    // attributed detections of the Byzantine replica
	Diverged     int64 `json:"diverged"`        // unattributed divergence (must stay 0)

	ClientRetries     uint64 `json:"client_retries"`
	ClientFailovers   uint64 `json:"client_failovers"`
	ClientQuarantines uint64 `json:"client_quarantines"`
}

// FleetReport is the BENCH_fleet.json document.
type FleetReport struct {
	Scheme   string `json:"scheme"`
	N        int    `json:"n"`
	Replicas int    `json:"replicas"`
	Clients  int    `json:"clients"`
	Pipeline int    `json:"pipeline"`
	WindowMS int64  `json:"window_ms"`

	Windows []FleetWindow `json:"windows"`

	TotalAccepted    int64 `json:"total_accepted"`
	TotalByzDetected int64 `json:"total_byz_detected"`
	Misattributed    int64 `json:"misattributed"` // quarantines of honest replicas (must stay 0)

	// Invariants the run asserts; RunFleetChaos fails loudly when violated.
	AllAcceptedVerified bool   `json:"all_accepted_verified"`
	FreshnessViolations int64  `json:"freshness_violations"`
	MaxReplicaLag       uint64 `json:"max_replica_lag"` // LSNs behind, observed on the held replica
	BootstrapsServed    uint64 `json:"bootstraps_served"`

	FollowersVerified  int  `json:"followers_verified"` // honest followers whose full catalog verified post-soak
	SweepVerified      int  `json:"sweep_verified"`     // primary-side final sweep
	StaleDetected      int  `json:"sweep_stale_detected"`
	CorrectnessChecked bool `json:"correctness_checked"`

	Primary NetStats            `json:"primary"`
	Source  replica.SourceStats `json:"source"`

	// Verify holds the scheme's verification fast-path counters after
	// the soak (nil for schemes without a fast path). The run fails if a
	// fast-path scheme shows zero cache hits — the soak must prove the
	// fast path is what it exercised.
	Verify *sigagg.VerifyStats `json:"verify,omitempty"`
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
	fl       *replica.Follower
	srv      *NetServer
	serveErr chan error
	cancel   context.CancelFunc
	runDone  chan struct{}
	proxy    *faultnet.Proxy
}

// fleetBench owns the fleet under test.
type fleetBench struct {
	cfg    FleetConfig
	scheme sigagg.Scheme // bound
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey

	rt     *wal.Runtime // the primary's owner → log → server → feed pipeline
	tmpDir string
	src    *replica.Source

	srv      *NetServer // primary front end (replication + final sweep)
	serveErr chan error
	addr     string

	honest    []*fleetReplica
	byzFl     *replica.Follower
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

// RunFleetChaos executes the soak and returns the report. Any violated
// safety invariant is an error, not a report field to eyeball.
func RunFleetChaos(cfg FleetConfig) (*FleetReport, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("server: nil scheme")
	}
	if cfg.N < 16 || cfg.Ranges < 1 || cfg.Clients < 1 || cfg.Pipeline < 1 || cfg.Replicas < 2 {
		return nil, fmt.Errorf("server: bad fleet config %+v", cfg)
	}
	b := &fleetBench{cfg: cfg, ts: 2}
	if err := b.setup(); err != nil {
		b.teardown()
		return nil, err
	}
	defer b.teardown()

	rep := &FleetReport{
		Scheme:   b.scheme.Name(),
		N:        cfg.N,
		Replicas: cfg.Replicas,
		Clients:  cfg.Clients,
		Pipeline: cfg.Pipeline,
		WindowMS: cfg.Window.Milliseconds(),
	}
	for _, w := range fleetWindows {
		win, err := b.runWindow(w.name, w.byz)
		if err != nil {
			return nil, err
		}
		rep.Windows = append(rep.Windows, *win)
		fmt.Printf("fleet: %-9s byz=%-8s accepted=%6d byz-detected=%3d stale=%4d lag-misses=%2d faults=%4d failovers=%3d quarantines=%2d\n",
			win.Name, win.ByzMode, win.Accepted, win.ByzDetected, win.StaleRetries, win.LagMisses,
			win.Detected, win.ClientFailovers, win.ClientQuarantines)
	}

	for _, win := range rep.Windows {
		rep.TotalAccepted += win.Accepted
		rep.TotalByzDetected += win.ByzDetected
		if win.Accepted == 0 {
			return nil, fmt.Errorf("server: window %q accepted nothing — no progress with honest replicas up", win.Name)
		}
		if win.ByzDetected == 0 {
			return nil, fmt.Errorf("server: window %q: Byzantine mode %q was never detected", win.Name, win.ByzMode)
		}
		if win.Diverged != 0 {
			return nil, fmt.Errorf("server: window %q: %d unattributed divergence events", win.Name, win.Diverged)
		}
		switch win.Name {
		case "churn":
			if win.ClientFailovers == 0 {
				return nil, fmt.Errorf("server: churn window killed a replica but no client failed over")
			}
		case "lag":
			if win.LagMisses == 0 {
				return nil, fmt.Errorf("server: lag window: the held replica never produced a freshness miss")
			}
		}
	}
	rep.Misattributed = b.misattributed
	if rep.Misattributed != 0 {
		return nil, fmt.Errorf("server: %d honest replicas were quarantined — misattributed blame", rep.Misattributed)
	}
	rep.MaxReplicaLag = b.maxLag
	if rep.MaxReplicaLag == 0 {
		return nil, fmt.Errorf("server: the held replica never showed measurable lag")
	}
	rep.AllAcceptedVerified = true // acceptance requires verification, asserted per answer

	if cfg.Check {
		n, err := b.verifyFollowers()
		if err != nil {
			return nil, err
		}
		rep.FollowersVerified = n
		verified, stale, err := sweepRuntime(b.rt, b.scheme, b.pub, b.addr, b.catalog, &b.ts)
		if err != nil {
			return nil, err
		}
		rep.SweepVerified = verified
		rep.StaleDetected = stale
		rep.CorrectnessChecked = true
		fmt.Printf("fleet: final sweeps passed (%d followers fully verified, %d primary answers verified)\n",
			n, verified)
	}
	rep.Primary = b.srv.Stats()
	rep.Source = b.src.Stats()
	if sp, ok := b.cfg.Scheme.(sigagg.VerifyStatsProvider); ok {
		vs := sp.VerifyStats()
		rep.Verify = &vs
		// The soak's whole point is heavy re-verification of a shared
		// catalog across replicas; a fast-path scheme that saw no cache
		// hits means the fast path was silently bypassed.
		if vs.H2CCacheHits == 0 || vs.FastVerifies == 0 {
			return nil, fmt.Errorf("server: verification fast path not exercised during fleet soak: %+v", vs)
		}
	}
	rep.BootstrapsServed = rep.Source.Bootstraps
	if want := uint64(cfg.Replicas + 2); rep.BootstrapsServed < want {
		// every initial follower, the rogue one, and the churn restart
		// must all have come up through the snapshot-bootstrap path
		return nil, fmt.Errorf("server: only %d bootstrap images served, want >= %d", rep.BootstrapsServed, want)
	}
	fmt.Printf("fleet: %d answers accepted across the fleet, %d Byzantine attempts detected and attributed, 0 violations\n",
		rep.TotalAccepted, rep.TotalByzDetected)
	return rep, nil
}

// setup builds the primary (durable pipeline + replication hub), the
// honest follower fleet behind fault proxies, and the Byzantine
// follower behind its tampering front.
func (b *fleetBench) setup() error {
	priv, pub, err := b.cfg.Scheme.KeyGen(nil)
	if err != nil {
		return err
	}
	bound, err := sigagg.Bind(b.cfg.Scheme, pub)
	if err != nil {
		return err
	}
	b.scheme, b.priv, b.pub = bound, priv, pub

	dir, err := os.MkdirTemp("", "authdb-fleet-")
	if err != nil {
		return err
	}
	b.tmpDir = dir
	da, err := core.NewDataAggregator(b.scheme, b.priv, core.DefaultConfig())
	if err != nil {
		return err
	}
	store, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	b.rt = wal.NewRuntime(da, core.NewQueryServer(b.scheme, core.WithShards(16)), store, 0)

	fmt.Printf("fleet: loading %d records under %s...\n", b.cfg.N, b.scheme.Name())
	recs := workload.Records(workload.Config{N: b.cfg.N, RecLen: 256, Seed: b.cfg.Seed})
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
	b.catalog = workload.NewHotRangeCatalog(keys, b.cfg.Ranges, b.cfg.SF, b.cfg.Seed+101)
	b.earlyState = b.rt.QS.Snapshot()

	b.src = replica.NewSource(b.rt, replica.SourceConfig{
		Heartbeat:    25 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	})
	b.srv = NewNetServer(b.rt.QS, NetConfig{
		MaxConns:    8 * (b.cfg.Clients + b.cfg.Replicas + 2),
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
	})
	b.srv.EnableReplication(b.src)
	ln, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	b.addr = ln.Addr().String()
	b.serveErr = make(chan error, 1)
	srv := b.srv
	go func(ch chan error) { ch <- srv.Serve(ln) }(b.serveErr)

	for i := 0; i < b.cfg.Replicas; i++ {
		r, err := b.startReplica()
		if err != nil {
			return err
		}
		if r.proxy, err = faultnet.NewProxy(r.srv.Addr().String(), faultnet.Profile{}, b.cfg.Seed+int64(i)+7); err != nil {
			return err
		}
		b.honest = append(b.honest, r)
	}
	byz, err := b.startReplica()
	if err != nil {
		return err
	}
	b.byzFl, b.byzSrv, b.byzErr = byz.fl, byz.srv, byz.serveErr
	b.byzCancel, b.byzDone = byz.cancel, byz.runDone
	if b.front, err = newByzFront(byz.srv.Addr().String(), b.scheme, b.priv); err != nil {
		return err
	}

	for _, r := range b.honest {
		if err := b.waitCaughtUp(r.fl, 10*time.Second); err != nil {
			return err
		}
	}
	return b.waitCaughtUp(b.byzFl, 10*time.Second)
}

// startReplica boots one follower: feed loop against the primary plus
// a serving front end over its QueryServer.
func (b *fleetBench) startReplica() (*fleetReplica, error) {
	fl, err := replica.NewFollower(replica.FollowerConfig{
		Scheme:      b.scheme,
		QSOpts:      []core.Option{core.WithShards(8)},
		ReadTimeout: 2 * time.Second,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		fl.Run(ctx, b.addr)
	}()
	srv := NewNetServer(fl.QS(), NetConfig{
		MaxConns:    8 * (b.cfg.Clients + 2),
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
	})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		cancel()
		<-runDone
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return &fleetReplica{fl: fl, srv: srv, serveErr: serveErr, cancel: cancel, runDone: runDone}, nil
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
	r.fl, r.srv, r.serveErr = fresh.fl, fresh.srv, fresh.serveErr
	r.cancel, r.runDone = fresh.cancel, fresh.runDone
	r.proxy.SetUpstream(fresh.srv.Addr().String())
	r.proxy.DropAll()
	return nil
}

// waitCaughtUp blocks until fl has applied everything the source has
// published. Only meaningful while the writer is stopped.
func (b *fleetBench) waitCaughtUp(fl *replica.Follower, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		if fl.AppliedLSN() >= b.src.LastLSN() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: follower stuck at LSN %d, primary at %d", fl.AppliedLSN(), b.src.LastLSN())
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
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		Retry: client.RetryPolicy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    25 * time.Millisecond,
			MaxElapsed:  b.cfg.Window,
			Seed:        seed,
		},
	}
}

// periodEvery is roughly how long the writer takes to certify a new
// ρ-period — the wait between Byzantine staleness probes.
func (b *fleetBench) periodEvery() time.Duration {
	return time.Duration(b.cfg.SummaryEvery) * b.cfg.UpdateEvery
}

type fleetClientResult struct {
	accepted    int64
	stale       int64 // freshness misses on honest replicas (retried)
	lagMiss     int64 // freshness misses attributed to the held replica
	byzStale    int64 // freshness misses attributed to the Byzantine front
	byzDetected int64 // quarantine-class convictions of the Byzantine front
	detected    int64 // transport faults observed
	diverged    int64 // unattributed divergence (hard failure)
	stats       client.Stats
	quar        map[string]error
	err         error
}

// runWindow drives one fault window: the writer mutating state, the
// fault script working an honest replica over, a cohort of fleet
// clients spread across the replicas, and one auditor session probing
// the Byzantine front.
func (b *fleetBench) runWindow(name, byz string) (*FleetWindow, error) {
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

	win := &FleetWindow{Name: name, ByzMode: byz}
	stopWriter := startHotWriter(b.rt, b.catalog, b.cfg.Theta, b.cfg.Seed+999+int64(len(name)),
		b.cfg.UpdateEvery, b.cfg.SummaryEvery, &b.ts)
	deadline := time.Now().Add(b.cfg.Window)

	var faultErr error
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
		faultErr = b.faultScript(name)
	}()

	results := make([]fleetClientResult, b.cfg.Clients+1)
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.Clients; c++ {
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
		b.runAuditor(name, deadline, &results[b.cfg.Clients])
	}()
	wg.Wait()
	<-faultDone
	_, _, werr := stopWriter()

	if name == "lag" {
		// Writer stopped: the held replica's distance to the primary is
		// now stable. Record it, then let it catch back up.
		r := b.honest[2%len(b.honest)]
		if lag := b.src.LastLSN() - r.fl.AppliedLSN(); lag > b.maxLag {
			b.maxLag = lag
		}
		r.fl.Resume()
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
		win.Accepted += r.accepted
		win.StaleRetries += r.stale
		win.LagMisses += r.lagMiss
		win.Detected += r.detected
		win.Diverged += r.diverged
		win.ByzDetected += r.byzDetected + r.byzStale
		win.ClientRetries += r.stats.Retries
		win.ClientFailovers += r.stats.Failovers
		win.ClientQuarantines += r.stats.Quarantines
		for addr, cause := range r.quar {
			if addr != b.byzAddr() {
				b.misattributed++
				fmt.Printf("fleet: MISATTRIBUTED quarantine of %s: %v\n", addr, cause)
			}
		}
	}
	return win, nil
}

// faultScript is the availability fault injected into each window.
func (b *fleetBench) faultScript(name string) error {
	w := b.cfg.Window
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
		b.honest[2%len(b.honest)].fl.Pause()
		return nil
	case "rollback":
		// The rogue replica freezes its feed and reinstates the
		// load-time image: a rollback attack, served with a straight
		// face (the front passes bytes through untouched).
		b.byzFl.Pause()
		return b.byzFl.QS().Restore(b.earlyState)
	}
	return nil
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
	gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+1000*int64(id+1))
	ranges := make([]core.Range, b.cfg.Pipeline)
	staleStreak, hops := 0, 0
	for time.Now().Before(deadline) {
		for i := range ranges {
			q := gen.Next()
			ranges[i] = core.Range{Lo: q.Lo, Hi: q.Hi}
		}
		_, _, err := cl.QueryBatch(ranges)
		switch {
		case err == nil:
			res.accepted += int64(len(ranges))
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
	defer func() { res.stats = cl.Stats(); res.quar = cl.Quarantined(); cl.Close() }()
	if _, err := cl.SyncSummaries(0); err != nil {
		res.err = err
		return
	}
	gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+7777)
	switch name {
	case "churn":
		b.auditTamper(cl, gen, res, deadline)
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
		_, _, err := cl.Query(q.Lo, q.Hi)
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

// auditTamper probes a signature-forging replica: one query through it
// must convict it with verification-failure evidence and complete,
// verified, on an honest replica.
func (b *fleetBench) auditTamper(cl *client.Client, gen *workload.HotRangeGen, res *fleetClientResult, deadline time.Time) {
	for time.Now().Before(deadline) {
		if cause, ok := cl.Quarantined()[b.byzAddr()]; ok {
			if errors.Is(cause, sigagg.ErrVerify) || errors.Is(cause, wire.ErrCorrupt) {
				res.byzDetected++
			}
			return
		}
		if err := cl.Reconnect(b.byzAddr()); err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		q := gen.Next()
		switch _, _, err := cl.Query(q.Lo, q.Hi); {
		case err == nil:
			res.accepted++ // hop already landed it on an honest replica
		case errors.Is(err, freshness.ErrStale):
			res.stale++
		default:
			res.detected++
		}
	}
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
// by completing the same query against a current replica.
func (b *fleetBench) auditStaleServer(cl *client.Client, target string, miss *int64, res *fleetClientResult, deadline time.Time) {
	q := b.catalog[0] // the hottest range: re-certified fastest
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
		switch _, _, err := cl.Query(q.Lo, q.Hi); {
		case errors.Is(err, freshness.ErrStale) && cl.CurrentAddr() == target:
			*miss++
			// The miss is retryable: the same query against a current
			// replica succeeds and verifies.
			if rerr := cl.Reconnect(b.honestAddr(0)); rerr == nil {
				if _, _, qerr := cl.Query(q.Lo, q.Hi); qerr == nil {
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
		if err := b.waitCaughtUp(r.fl, 10*time.Second); err != nil {
			return verified, fmt.Errorf("server: follower %d never caught up: %w", i, err)
		}
		cl, err := client.Dial(r.srv.Addr().String(), client.Config{
			Scheme: b.scheme, Pub: b.pub,
			DialTimeout: 2 * time.Second, RequestTimeout: 5 * time.Second,
		})
		if err != nil {
			return verified, err
		}
		if _, err := cl.SyncSummaries(0); err != nil {
			cl.Close()
			return verified, err
		}
		if _, _, err := sweepCatalog(cl, b.catalog); err != nil {
			cl.Close()
			return verified, fmt.Errorf("server: follower %d failed verification: %w", i, err)
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
	if b.rt != nil {
		b.rt.Close()
	}
	if b.tmpDir != "" {
		os.RemoveAll(b.tmpDir)
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
	byzReplay          // re-serve captured responses, keyed by exact request bytes
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

// replayKey canonicalizes a request for the replay cache. Range
// queries key by the queried range alone: the session's summary-delta
// cursor (sinceSeq) varies between otherwise-identical probes, and a
// real replayer answers the same question with yesterday's frame
// regardless of what the asker claims to hold.
func replayKey(req []byte) string {
	if lo, hi, _, err := wire.DecodeQueryReq(req); err == nil {
		return fmt.Sprintf("Q:%d:%d", lo, hi)
	}
	return string(req)
}

// mutate applies the mode's forgery to one response frame.
func (f *byzFront) mutate(mode byzMode, frame []byte) []byte {
	kind, err := wire.Kind(frame)
	if err != nil {
		return frame
	}
	switch {
	case mode == byzSigFlip && kind == wire.KindAnswer:
		ans, err := wire.DecodeAnswer(frame)
		if err != nil || len(ans.Chain.Agg) == 0 {
			return frame
		}
		ans.Chain.Agg[0] ^= 0x01
		out, err := wire.AppendAnswer(nil, ans)
		if err != nil {
			return frame
		}
		return out
	case mode == byzForkSum && kind == wire.KindAnswer:
		ans, err := wire.DecodeAnswer(frame)
		if err != nil || !f.forge(ans.Summaries) {
			return frame
		}
		out, err := wire.AppendAnswer(nil, ans)
		if err != nil {
			return frame
		}
		return out
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
