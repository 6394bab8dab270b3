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
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/freshness"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wal"
	"authdb/internal/workload"
)

// The soak's size: every fault profile for one phase each, forced
// restarts with WAL recovery under the nastiest one, then the overload
// phase.
const (
	chaosN        = 4_000
	chaosRanges   = 128
	chaosClients  = 3 // concurrent verifying clients per phase
	chaosPhaseDur = 400 * time.Millisecond
	chaosRestarts = 2 // kill/recover cycles during the "reset" phase
)

// chaosPhase is one fault regime's outcome.
type chaosPhase struct {
	profile  string
	accepted int64 // answers verified before acceptance, by construction
	detected int64 // failed operations the harness observed
	diverged int64 // summary-stream divergence (must stay 0)

	clientRetries, clientReconnects uint64
}

// chaosReport is what TestChaosSoakShort asserts on.
type chaosReport struct {
	phases        []chaosPhase
	overloadShed  uint64 // requests the overload phase's server shed
	sweepVerified int    // answers the final direct sweep verified
}

// chaosBench owns the durable world under test: one aggregator key pair
// that outlives every server incarnation, the relation runtime over the
// durable state directory, and the proxy every client dials through.
type chaosBench struct {
	scheme sigagg.Scheme // bound
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey

	rt  *wal.Runtime // this incarnation's owner → log → server pipeline
	dir string       // durable state directory, outlives every incarnation

	srv      *NetServer
	serveErr chan error
	proxy    *faultnet.Proxy

	catalog            []workload.RangeQuery
	domainLo, domainHi int64 // full key span, for deliberately heavy queries
	ts                 int64
}

// runChaos executes the soak and reports what it observed; an operation
// that may not fail — the writer, a recovery, a session outside the fault
// classes it is allowed to survive, the final sweep — is an error.
func runChaos(t *testing.T) (*chaosReport, error) {
	b := &chaosBench{dir: t.TempDir(), ts: 2}
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.teardown()

	rep := &chaosReport{}
	for _, prof := range faultnet.Profiles() {
		restarts := 0
		if prof.Name == "reset" {
			restarts = chaosRestarts // kill the server under the nastiest regime
		}
		ph, err := b.runPhase(prof, restarts)
		if err != nil {
			return nil, err
		}
		rep.phases = append(rep.phases, *ph)
		t.Logf("chaos: %-9s accepted=%6d detected=%5d retries=%5d reconnects=%4d restarts=%d diverged=%d",
			prof.Name, ph.accepted, ph.detected, ph.clientRetries, ph.clientReconnects, restarts, ph.diverged)
	}

	ph, shed, err := b.runOverloadPhase()
	if err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, *ph)
	rep.overloadShed = shed
	t.Logf("chaos: %-9s accepted=%6d shed(server)=%d", ph.profile, ph.accepted, shed)

	// against the final incarnation, with no proxy in the way
	if rep.sweepVerified, err = sweepRuntime(b.rt, b.scheme, b.pub, b.srv.Addr().String(), b.catalog, &b.ts); err != nil {
		return nil, err
	}
	return rep, nil
}

// setup builds the durable world: fixed key pair, WAL-backed owner
// pipeline, loaded relation, hardened server, and the fault proxy.
func (b *chaosBench) setup() error {
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

	if _, err := b.boot(); err != nil {
		return err
	}

	recs := workload.Records(workload.Config{N: chaosN, RecLen: 256, Seed: soakSeed})
	keys := workload.Keys(recs)
	msg, err := b.rt.DA.Load(recs, 1)
	if err != nil {
		return err
	}
	if err := b.rt.Load(msg); err != nil {
		return err
	}
	b.catalog = workload.NewHotRangeCatalog(keys, chaosRanges, soakSF, soakSeed+101)
	b.domainLo, b.domainHi = keys[0], keys[len(keys)-1]

	if err := b.startServer(); err != nil {
		return err
	}
	b.proxy, err = faultnet.NewProxy(b.srv.Addr().String(), faultnet.Profile{}, soakSeed+7)
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
		MaxConns:    4 * chaosClients,
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 5 * time.Second,
		MaxInflight: 4 * chaosClients,
		MaxPending:  8 * chaosClients,
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
func (b *chaosBench) runPhase(prof faultnet.Profile, restarts int) (*chaosPhase, error) {
	b.proxy.SetProfile(prof)
	defer b.proxy.SetProfile(faultnet.Profile{})

	ph := &chaosPhase{profile: prof.Name}
	// The writer runs over the current incarnation's runtime; each
	// restart stops it and starts a new one over the recovered runtime.
	var stopWriter func() error
	startW := func(seed int64) {
		stopWriter = startHotWriter(b.rt, b.catalog, seed, &b.ts)
	}
	stopW := func() error {
		if stopWriter == nil {
			return nil
		}
		err := stopWriter()
		stopWriter = nil
		return err
	}
	startW(soakSeed + 999)

	deadline := time.Now().Add(chaosPhaseDur)
	var wg sync.WaitGroup
	results := make([]chaosClientResult, chaosClients)
	for c := 0; c < chaosClients; c++ {
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
		wait := chaosPhaseDur / time.Duration(restarts+1)
		time.Sleep(wait)
		if err := stopW(); err != nil {
			restartErr = err
			break
		}
		if err := b.restartServer(r); err != nil {
			restartErr = err
			break
		}
		startW(soakSeed + 999 + int64(r))
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
		ph.accepted += r.accepted
		ph.detected += r.detected
		ph.diverged += r.diverged
		ph.clientRetries += r.stats.Retries
		ph.clientReconnects += r.stats.Reconnects
	}
	return ph, nil
}

type chaosClientResult struct {
	accepted int64
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
	gen := workload.NewHotRangeGen(b.catalog, soakTheta, soakSeed+1000*int64(id+1))
	specs := make([]*query.Spec, soakPipeline)
	for time.Now().Before(deadline) {
		for i := range specs {
			q := gen.Next()
			specs[i] = leaf(q.Lo, q.Hi)
		}
		for attempt := 0; attempt < 4; attempt++ {
			_, err := cl.QueryPlans(specs)
			switch {
			case err == nil:
				res.accepted += int64(len(specs))
			case errors.Is(err, client.ErrDiverged):
				res.diverged++
				return res
			case errors.Is(err, freshness.ErrStale):
				// A summary proved a newer version exists: re-query.
				continue
			default:
				// A transport fault, or corruption that got past framing but
				// not past cryptography — the fault was detected, the answer
				// rejected.
				res.detected++
				b.recoverSession(cl)
			}
			break
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
func (b *chaosBench) runOverloadPhase() (*chaosPhase, uint64, error) {
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

	ph := &chaosPhase{profile: "overload"}
	deadline := time.Now().Add(chaosPhaseDur)
	var wg, hamWG sync.WaitGroup
	hamDone := make(chan struct{})

	// Hammerers: fetch-only sessions pipelining full-domain scans with
	// no backoff. A full-domain answer spans many response flushes, so
	// each one holds the execution slot across real blocking writes —
	// the queue fills, the overflow is genuinely shed. Their rejections
	// are the phase's point, not failures.
	hammerers := 2 * chaosClients
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
			defer cl.Close()
			specs := make([]*query.Spec, soakPipeline)
			for i := range specs {
				specs[i] = leaf(b.domainLo, b.domainHi)
			}
			for time.Now().Before(deadline) {
				if _, err := cl.QueryPlans(specs); err != nil {
					if errors.Is(err, client.ErrOverloaded) {
						res.detected++ // shed, as intended
						continue
					}
					res.err = err
					return
				}
			}
		}()
	}
	go func() { hamWG.Wait(); close(hamDone) }()

	// Verifiers: well-behaved retrying sessions that must still make
	// verified progress through the overload — backoff is what buys
	// their way in.
	results := make([]chaosClientResult, chaosClients)
	for c := 0; c < chaosClients; c++ {
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
			gen := workload.NewHotRangeGen(b.catalog, soakTheta, soakSeed+3000*int64(c+1))
			for time.Now().Before(deadline) {
				q := gen.Next()
				_, err := cl.QueryPlan(leaf(q.Lo, q.Hi))
				switch {
				case err == nil:
					res.accepted++
				case errors.Is(err, freshness.ErrStale):
					// the protocol working; requeried next loop naturally
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
				_, err := cl.QueryPlan(leaf(q.Lo, q.Hi))
				switch {
				case err == nil:
					res.accepted++
				case errors.Is(err, freshness.ErrStale):
					// not the answer it is owed yet; try again
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
		ph.detected += r.detected
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, 0, fmt.Errorf("server: overload client %d: %w", i, r.err)
		}
		ph.accepted += r.accepted
		ph.detected += r.detected
		ph.clientRetries += r.stats.Retries
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
}

// TestChaosSoakShort runs the soak — every fault profile, forced
// restarts with WAL recovery, and the overload phase — and asserts its
// invariants: nonzero verified goodput under every regime, zero
// divergence events, real shedding above the admission cap, and a final
// sweep that ran. A freshness violation cannot be counted, only caught:
// acceptance requires Verify, and the sweep fails on a stale answer to a
// query that follows its update.
func TestChaosSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	rep, err := runChaos(t)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(faultnet.Profiles()) + 1; len(rep.phases) != want {
		t.Fatalf("ran %d phases, want %d", len(rep.phases), want)
	}
	// The hostile phases must actually have been hostile: at least one
	// detected fault or retry across the run.
	var hostile int64
	for _, ph := range rep.phases {
		if ph.accepted == 0 {
			t.Errorf("phase %q accepted nothing — no verified goodput", ph.profile)
		}
		if ph.diverged != 0 {
			t.Errorf("phase %q: %d divergence events across durable restarts", ph.profile, ph.diverged)
		}
		hostile += ph.detected + int64(ph.clientRetries+ph.clientReconnects)
	}
	if hostile == 0 {
		t.Error("no faults detected or retried anywhere — injection inert?")
	}
	if rep.overloadShed == 0 {
		t.Error("admission control never shed during the overload phase")
	}
	if rep.sweepVerified == 0 {
		t.Error("final verification sweep verified nothing")
	}
}
