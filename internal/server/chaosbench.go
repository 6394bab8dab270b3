package server

// The chaos soak: the full stack — the durable relation runtime
// authserve runs (wal.Runtime: WAL + background snapshots), networked
// server, verifying clients — driven through injected network faults,
// forced server kills with recovery, and admission-control overload,
// while asserting the protocol's safety invariants hold under every
// regime:
//
//   - every answer the harness accepts passed full verification
//     (authenticity, completeness, freshness) — faults fail requests,
//     they never widen what a client accepts;
//   - the certified summary stream never silently diverges across a
//     durable restart (ErrDiverged is a harness failure here, because
//     recovery is supposed to preserve the stream);
//   - above the admission cap the server sheds rather than queues
//     without bound, and retrying clients still make progress.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/workload"
)

// ChaosConfig sizes one chaos soak.
type ChaosConfig struct {
	Scheme   sigagg.Scheme // raw (unbound) scheme
	N        int           // relation size
	Ranges   int           // hot-range catalog size
	SF       float64       // selectivity factor
	Theta    float64       // zipf exponent (>1)
	Clients  int           // concurrent verifying clients per phase
	Pipeline int           // queries pipelined per batch

	Duration     time.Duration // per fault phase
	UpdateEvery  time.Duration // writer cadence
	SummaryEvery int           // close a ρ-period every k updates

	Profiles []string // faultnet profile names ("" or empty = all built-ins)
	Restarts int      // kill/recover cycles during the restart phase
	Overload bool     // run the admission-shed phase
	WALDir   string   // durable state directory ("" = fresh temp dir)
	Seed     int64
	Check    bool // full direct verification sweep at the end
}

// DefaultChaosConfig returns a soak that finishes in a couple of
// seconds per phase on one core.
func DefaultChaosConfig(scheme sigagg.Scheme) ChaosConfig {
	return ChaosConfig{
		Scheme:       scheme,
		N:            20_000,
		Ranges:       256,
		SF:           0.0005,
		Theta:        1.07,
		Clients:      4,
		Pipeline:     4,
		Duration:     1200 * time.Millisecond,
		UpdateEvery:  2 * time.Millisecond,
		SummaryEvery: 20,
		Restarts:     3,
		Overload:     true,
		Seed:         1,
		Check:        true,
	}
}

// ChaosPhase is one fault regime's outcome.
type ChaosPhase struct {
	Profile  string `json:"profile"`
	Restarts int    `json:"restarts,omitempty"`

	Accepted     int64 `json:"answers_accepted"` // verified before acceptance, by construction
	StaleRetries int64 `json:"stale_retries"`    // freshness.ErrStale → re-query (protocol working)
	Detected     int64 `json:"faults_detected"`  // failed operations the harness observed
	Diverged     int64 `json:"diverged"`         // summary-stream divergence (must stay 0)

	ClientRetries    uint64 `json:"client_retries"`
	ClientReconnects uint64 `json:"client_reconnects"`
	ClientShed       uint64 `json:"client_shed"`
}

// ChaosReport is the BENCH_chaos.json document.
type ChaosReport struct {
	Scheme     string   `json:"scheme"`
	N          int      `json:"n"`
	Clients    int      `json:"clients"`
	Pipeline   int      `json:"pipeline"`
	DurationMS int64    `json:"duration_ms_per_phase"`
	Profiles   []string `json:"profiles"`

	Phases []ChaosPhase `json:"phases"`

	TotalAccepted int64 `json:"total_accepted"`
	TotalDetected int64 `json:"total_detected"`

	// Invariants the run asserts; RunChaos fails loudly when violated.
	AllAcceptedVerified bool     `json:"all_accepted_verified"`
	FreshnessViolations int64    `json:"freshness_violations"`
	DivergenceEvents    int64    `json:"divergence_events"`
	OverloadShed        uint64   `json:"overload_shed"`
	ServerStats         NetStats `json:"server"`

	SweepVerified      int  `json:"sweep_verified"`
	StaleDetected      int  `json:"sweep_stale_detected"`
	CorrectnessChecked bool `json:"correctness_checked"`
}

// chaosBench owns the durable world under test: one aggregator key pair
// that outlives every server incarnation, the relation runtime over the
// durable state directory, and the proxy every client dials through.
type chaosBench struct {
	cfg    ChaosConfig
	scheme sigagg.Scheme // bound
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey

	rt     *wal.Runtime // this incarnation's owner → log → server pipeline
	dir    string       // durable state directory, outlives every incarnation
	tmpDir string       // deleted on teardown when we created it

	srv      *NetServer
	serveErr chan error
	proxy    *faultnet.Proxy

	catalog            []workload.RangeQuery
	domainLo, domainHi int64 // full key span, for deliberately heavy queries
	ts                 int64
}

// RunChaos executes the soak and returns the report. Any violated
// safety invariant is an error, not a report field to eyeball.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("server: nil scheme")
	}
	if cfg.N < 16 || cfg.Ranges < 1 || cfg.Clients < 1 || cfg.Pipeline < 1 {
		return nil, fmt.Errorf("server: bad chaos config %+v", cfg)
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		for _, p := range faultnet.Profiles() {
			profiles = append(profiles, p.Name)
		}
	}
	b := &chaosBench{cfg: cfg, ts: 2}
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.teardown()

	rep := &ChaosReport{
		Scheme:     b.scheme.Name(),
		N:          cfg.N,
		Clients:    cfg.Clients,
		Pipeline:   cfg.Pipeline,
		DurationMS: cfg.Duration.Milliseconds(),
		Profiles:   profiles,
	}

	for _, name := range profiles {
		prof, err := faultnet.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		restarts := 0
		if name == "reset" {
			restarts = cfg.Restarts // kill the server under the nastiest regime
		}
		ph, err := b.runPhase(prof, restarts)
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, *ph)
		fmt.Printf("chaos: %-9s accepted=%6d detected=%5d stale=%4d retries=%5d reconnects=%4d restarts=%d diverged=%d\n",
			name, ph.Accepted, ph.Detected, ph.StaleRetries, ph.ClientRetries, ph.ClientReconnects, restarts, ph.Diverged)
	}

	if cfg.Overload {
		ph, shed, err := b.runOverloadPhase()
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, *ph)
		rep.OverloadShed = shed
		fmt.Printf("chaos: %-9s accepted=%6d shed(server)=%d shed(clients)=%d\n",
			ph.Profile, ph.Accepted, shed, ph.ClientShed)
		if shed == 0 {
			return nil, fmt.Errorf("server: overload phase shed nothing — admission control never engaged")
		}
	}

	for _, ph := range rep.Phases {
		rep.TotalAccepted += ph.Accepted
		rep.TotalDetected += ph.Detected
		rep.DivergenceEvents += ph.Diverged
	}
	rep.AllAcceptedVerified = true // acceptance requires verification, asserted per answer below
	if rep.DivergenceEvents > 0 {
		return nil, fmt.Errorf("server: %d divergence events across durable restarts", rep.DivergenceEvents)
	}
	if rep.TotalAccepted == 0 {
		return nil, fmt.Errorf("server: chaos run accepted zero answers — no goodput under faults")
	}

	if cfg.Check {
		// against the final incarnation, with no proxy in the way
		verified, stale, err := sweepRuntime(b.rt, b.scheme, b.pub, b.srv.Addr().String(), b.catalog, &b.ts)
		if err != nil {
			return nil, err
		}
		rep.SweepVerified = verified
		rep.StaleDetected = stale
		rep.CorrectnessChecked = true
		fmt.Printf("chaos: final direct sweep passed (%d answers verified, %d staleness detections)\n", verified, stale)
	}
	rep.ServerStats = b.srv.Stats()
	fmt.Printf("chaos: %d answers accepted under faults, %d faults detected, 0 violations\n",
		rep.TotalAccepted, rep.TotalDetected)
	return rep, nil
}

// setup builds the durable world: fixed key pair, WAL-backed owner
// pipeline, loaded relation, hardened server, and the fault proxy.
func (b *chaosBench) setup() error {
	priv, pub, err := b.cfg.Scheme.KeyGen(nil)
	if err != nil {
		return err
	}
	bound, err := sigagg.Bind(b.cfg.Scheme, pub)
	if err != nil {
		return err
	}
	b.scheme, b.priv, b.pub = bound, priv, pub

	b.dir = b.cfg.WALDir
	if b.dir == "" {
		if b.tmpDir, err = os.MkdirTemp("", "authdb-chaos-"); err != nil {
			return err
		}
		b.dir = b.tmpDir
	}
	if recovered, err := b.boot(); err != nil {
		return err
	} else if recovered {
		return fmt.Errorf("server: chaos state directory %s is not empty", b.dir)
	}

	fmt.Printf("chaos: loading %d records under %s...\n", b.cfg.N, b.scheme.Name())
	recs := workload.Records(workload.Config{N: b.cfg.N, RecLen: 256, Seed: b.cfg.Seed})
	keys := workload.Keys(recs)
	msg, err := b.rt.DA.Load(recs, 1)
	if err != nil {
		return err
	}
	if err := b.rt.Load(msg); err != nil {
		return err
	}
	b.catalog = workload.NewHotRangeCatalog(keys, b.cfg.Ranges, b.cfg.SF, b.cfg.Seed+101)
	b.domainLo, b.domainHi = keys[0], keys[len(keys)-1]

	if err := b.startServer(); err != nil {
		return err
	}
	b.proxy, err = faultnet.NewProxy(b.srv.Addr().String(), faultnet.Profile{}, b.cfg.Seed+7)
	return err
}

// chaosSnapEvery keeps background snapshots (and the log truncation
// behind them) landing inside every phase, under client traffic.
const chaosSnapEvery = 100

// boot opens the state directory and brings fresh parties up over it
// the way authserve does, reporting whether there was state to recover.
func (b *chaosBench) boot() (bool, error) {
	da, err := core.NewDataAggregator(b.scheme, b.priv, core.DefaultConfig())
	if err != nil {
		return false, err
	}
	store, err := wal.Open(b.dir, wal.Options{NoSync: true})
	if err != nil {
		return false, err
	}
	b.rt = wal.NewRuntime(da, core.NewQueryServer(b.scheme, core.WithShards(16)), store, chaosSnapEvery)
	_, recovered, err := b.rt.Recover()
	return recovered, err
}

// startServer boots a hardened NetServer incarnation over the current
// query server.
func (b *chaosBench) startServer() error {
	b.srv = NewNetServer(b.rt.QS, NetConfig{
		MaxConns:    4 * b.cfg.Clients,
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
		MaxInflight: 4 * b.cfg.Clients,
		MaxPending:  8 * b.cfg.Clients,
	})
	ln, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	b.serveErr = make(chan error, 1)
	srv := b.srv
	go func(ch chan error) { ch <- srv.Serve(ln) }(b.serveErr)
	return nil
}

// killServer force-stops the current incarnation the unclean way a
// crash would: no drain grace, connections cut mid-flight.
func (b *chaosBench) killServer() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: connections are closed forcibly
	b.srv.Shutdown(ctx)
	<-b.serveErr
}

// restartServer is one crash/recover cycle: kill the incarnation, drop
// its parties, recover fresh ones from the state directory (snapshot +
// log tail, folded into a fresh snapshot), and re-point the proxy so
// surviving clients fail over.
func (b *chaosBench) restartServer(cycle int) error {
	b.killServer()
	if err := b.rt.Close(); err != nil {
		return err
	}
	if recovered, err := b.boot(); err != nil {
		return fmt.Errorf("server: chaos recovery cycle %d: %w", cycle, err)
	} else if !recovered {
		return fmt.Errorf("server: chaos recovery cycle %d found no durable state", cycle)
	}
	if err := b.startServer(); err != nil {
		return err
	}
	b.proxy.SetUpstream(b.srv.Addr().String())
	b.proxy.DropAll() // sever pipes into the dead incarnation
	return nil
}

func (b *chaosBench) clientConfig(seed int64) client.Config {
	return client.Config{
		Scheme:         b.scheme,
		Pub:            b.pub,
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		Retry: client.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        seed,
		},
	}
}

// runPhase drives Clients verifying sessions through the proxy under
// prof for the phase duration, with the writer mutating state the whole
// time and restarts>0 forced server kills spread through the window.
func (b *chaosBench) runPhase(prof faultnet.Profile, restarts int) (*ChaosPhase, error) {
	b.proxy.SetProfile(prof)
	defer b.proxy.SetProfile(faultnet.Profile{})

	ph := &ChaosPhase{Profile: prof.Name, Restarts: restarts}
	// The writer runs over the current incarnation's runtime; each
	// restart stops it and starts a new one over the recovered runtime.
	var stopWriter func() (int64, int64, error)
	startW := func(seed int64) {
		stopWriter = startHotWriter(b.rt, b.catalog, b.cfg.Theta, seed,
			b.cfg.UpdateEvery, b.cfg.SummaryEvery, &b.ts)
	}
	stopW := func() error {
		if stopWriter == nil {
			return nil
		}
		_, _, err := stopWriter()
		stopWriter = nil
		return err
	}
	startW(b.cfg.Seed + 999)

	deadline := time.Now().Add(b.cfg.Duration)
	var wg sync.WaitGroup
	results := make([]chaosClientResult, b.cfg.Clients)
	for c := 0; c < b.cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = b.runChaosClient(c, deadline)
		}()
	}

	// Forced kills spread through the phase; the writer is paused around
	// each (the owner pipeline is one process with the server here).
	var restartErr error
	for r := 0; r < restarts; r++ {
		wait := b.cfg.Duration / time.Duration(restarts+1)
		time.Sleep(wait)
		if err := stopW(); err != nil {
			restartErr = err
			break
		}
		if err := b.restartServer(r); err != nil {
			restartErr = err
			break
		}
		startW(b.cfg.Seed + 999 + int64(r))
	}
	wg.Wait()
	if err := stopW(); err != nil {
		return nil, err
	}
	if restartErr != nil {
		return nil, restartErr
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, fmt.Errorf("server: chaos client %d under %q: %w", i, prof.Name, r.err)
		}
		ph.Accepted += r.accepted
		ph.StaleRetries += r.stale
		ph.Detected += r.detected
		ph.Diverged += r.diverged
		ph.ClientRetries += r.stats.Retries
		ph.ClientReconnects += r.stats.Reconnects
		ph.ClientShed += r.stats.Shed
	}
	return ph, nil
}

type chaosClientResult struct {
	accepted int64
	stale    int64
	detected int64
	diverged int64
	stats    client.Stats
	err      error
}

// runChaosClient is one verifying session's closed loop under faults.
// The acceptance rule is the whole point: an answer counts only after
// Verify passed on exactly the delivered bytes. Every failure is either
// retried (transport), re-queried (staleness — the protocol working),
// or recorded as a detected fault and survived via reconnect; a
// divergence report is recorded and stops the session, because durable
// recovery must never present a rolled-back stream.
func (b *chaosBench) runChaosClient(id int, deadline time.Time) (res chaosClientResult) {
	cl, err := client.Dial(b.proxy.Addr(), b.clientConfig(int64(id)+1))
	if err != nil {
		// The proxy may be mid-partition; a client that never connects
		// detects faults but accepts nothing.
		res.detected++
		return res
	}
	defer func() { res.stats = cl.Stats(); cl.Close() }()
	if _, err := cl.SyncSummaries(0); err != nil {
		res.detected++
		if errors.Is(err, client.ErrDiverged) {
			res.diverged++
			return res
		}
	}
	gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+1000*int64(id+1))
	ranges := make([]core.Range, b.cfg.Pipeline)
	for time.Now().Before(deadline) {
		for i := range ranges {
			q := gen.Next()
			ranges[i] = core.Range{Lo: q.Lo, Hi: q.Hi}
		}
		answers, err := cl.FetchBatch(ranges)
		if err != nil {
			if errors.Is(err, client.ErrDiverged) {
				res.diverged++
				return res
			}
			res.detected++
			b.recoverSession(cl)
			continue
		}
		verified := false
		for attempt := 0; attempt < 4 && !verified; attempt++ {
			_, verr := cl.Verify(answers, ranges)
			switch {
			case verr == nil:
				verified = true
			case errors.Is(verr, client.ErrDiverged):
				res.diverged++
				return res
			case errors.Is(verr, freshness.ErrStale):
				// A summary proved a newer version exists: re-query.
				res.stale++
				answers, err = cl.FetchBatch(ranges)
				if err != nil {
					res.detected++
					b.recoverSession(cl)
					attempt = 4 // give up on this batch
				}
			default:
				// Corruption got past framing but not past cryptography —
				// the fault was detected, the answer rejected.
				res.detected++
				b.recoverSession(cl)
				attempt = 4
			}
		}
		if verified {
			res.accepted += int64(len(answers))
		}
	}
	return res
}

// recoverSession re-establishes a session after a detected fault; a
// failed reconnect just leaves the next loop iteration to try again
// (the retry machinery inside each operation also reconnects).
func (b *chaosBench) recoverSession(cl *client.Client) {
	if err := cl.Reconnect(b.proxy.Addr()); err != nil {
		time.Sleep(5 * time.Millisecond)
	}
}

// runOverloadPhase hammers a deliberately tiny admission gate (its own
// server incarnation over the same live query server, no fault proxy)
// and requires actual shedding plus continued verified goodput.
func (b *chaosBench) runOverloadPhase() (*ChaosPhase, uint64, error) {
	tiny := NewNetServer(b.rt.QS, NetConfig{MaxInflight: 1, MaxPending: 1})
	ln, err := tiny.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- tiny.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tiny.Shutdown(ctx)
		<-serveErr
	}()

	ph := &ChaosPhase{Profile: "overload"}
	deadline := time.Now().Add(b.cfg.Duration)
	var wg, hamWG sync.WaitGroup
	hamDone := make(chan struct{})

	// Hammerers: fetch-only sessions pipelining full-domain scans with
	// no backoff. A full-domain answer spans many response flushes, so
	// each one holds the execution slot across real blocking writes —
	// the queue fills, the overflow is genuinely shed. Their rejections
	// are the phase's point, not failures.
	hammerers := 2 * b.cfg.Clients
	hams := make([]chaosClientResult, hammerers)
	for c := 0; c < hammerers; c++ {
		c := c
		wg.Add(1)
		hamWG.Add(1)
		go func() {
			defer wg.Done()
			defer hamWG.Done()
			res := &hams[c]
			cl, err := client.Dial(ln.Addr().String(), client.Config{
				Scheme: b.scheme, Pub: b.pub,
				DialTimeout:    2 * time.Second,
				RequestTimeout: 10 * time.Second,
			})
			if err != nil {
				res.err = err
				return
			}
			defer func() { res.stats = cl.Stats(); cl.Close() }()
			ranges := make([]core.Range, b.cfg.Pipeline)
			for i := range ranges {
				ranges[i] = core.Range{Lo: b.domainLo, Hi: b.domainHi}
			}
			for time.Now().Before(deadline) {
				if _, err := cl.FetchBatch(ranges); err != nil {
					if errors.Is(err, client.ErrOverloaded) {
						res.detected++ // shed, as intended
						continue
					}
					res.err = err
					return
				}
				res.accepted += int64(len(ranges))
			}
		}()
	}
	go func() { hamWG.Wait(); close(hamDone) }()

	// Verifiers: well-behaved retrying sessions that must still make
	// verified progress through the overload — backoff is what buys
	// their way in.
	results := make([]chaosClientResult, b.cfg.Clients)
	for c := 0; c < b.cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			cl, err := client.Dial(ln.Addr().String(), client.Config{
				Scheme: b.scheme, Pub: b.pub,
				DialTimeout:    2 * time.Second,
				RequestTimeout: 5 * time.Second,
				Retry: client.RetryPolicy{
					MaxAttempts: 50,
					BaseDelay:   time.Millisecond,
					MaxDelay:    20 * time.Millisecond,
					Seed:        int64(c) + 1,
				},
			})
			if err != nil {
				res.err = err
				return
			}
			defer func() { res.stats = cl.Stats(); cl.Close() }()
			if _, err := cl.SyncSummaries(0); err != nil {
				res.err = err
				return
			}
			gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+3000*int64(c+1))
			for time.Now().Before(deadline) {
				q := gen.Next()
				_, _, err := cl.Query(q.Lo, q.Hi)
				switch {
				case err == nil:
					res.accepted++
				case errors.Is(err, freshness.ErrStale):
					res.stale++ // requeried next loop naturally
				case errors.Is(err, client.ErrOverloaded):
					res.detected++ // shed through the whole retry budget
				default:
					res.err = err
					return
				}
			}
			if res.accepted > 0 {
				return
			}
			// The contention window starved this session outright (one
			// busy CPU and heavyweight hammerers can do that). The
			// invariant is "overload sheds load, it does not wedge the
			// service": once the burst subsides a patient session must get
			// through, so wait out the hammerers and claim the answer it
			// was owed.
			<-hamDone
			for attempt := 0; attempt < 4 && res.accepted == 0; attempt++ {
				q := gen.Next()
				_, _, err := cl.Query(q.Lo, q.Hi)
				switch {
				case err == nil:
					res.accepted++
				case errors.Is(err, freshness.ErrStale):
					res.stale++
				default:
					res.err = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range hams {
		r := &hams[i]
		if r.err != nil {
			return nil, 0, fmt.Errorf("server: overload hammerer %d: %w", i, r.err)
		}
		ph.Detected += r.detected
		ph.ClientShed += r.stats.Shed
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, 0, fmt.Errorf("server: overload client %d: %w", i, r.err)
		}
		ph.Accepted += r.accepted
		ph.StaleRetries += r.stale
		ph.Detected += r.detected
		ph.ClientRetries += r.stats.Retries
		ph.ClientShed += r.stats.Shed
	}
	if ph.Accepted == 0 {
		return nil, 0, fmt.Errorf("server: overload phase made no progress at all")
	}
	return ph, tiny.Stats().Shed, nil
}

// teardown releases the world.
func (b *chaosBench) teardown() {
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b.srv.Shutdown(ctx)
		cancel()
		if b.serveErr != nil {
			<-b.serveErr
		}
	}
	if b.proxy != nil {
		b.proxy.Close()
	}
	if b.rt != nil {
		b.rt.Close()
	}
	if b.tmpDir != "" {
		os.RemoveAll(b.tmpDir)
	}
}
