package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/workload"
)

// NetBenchConfig sizes one networked serving benchmark: closed-loop
// verifying clients over real loopback TCP sockets against a live
// NetServer, while a writer applies updates and closes ρ-periods so the
// freshness summary stream is exercised end to end.
type NetBenchConfig struct {
	Scheme       sigagg.Scheme // raw (unbound) scheme
	N            int           // relation size
	Ranges       int           // hot-range catalog size
	SF           float64       // selectivity factor
	Theta        float64       // zipf exponent (>1)
	Clients      []int         // closed-loop client counts to sweep
	Pipeline     int           // queries pipelined per batch round trip
	Duration     time.Duration // timed window per client count
	UpdateEvery  time.Duration // writer cadence (0 = read-only)
	SummaryEvery int           // close a ρ-period every k updates (0 = never)
	CacheBytes   int64         // answer-cache budget (0 = serve uncached)
	VerifyEvery  int           // client-verify every k-th batch in-loop
	Shards       int           // QueryServer key-range shards
	MaxConns     int           // server connection cap (0 = clients+4)
	Seed         int64
	Check        bool // full client-side verification sweep over the catalog
}

// DefaultNetBenchConfig returns a run that finishes in seconds on one
// core.
func DefaultNetBenchConfig(scheme sigagg.Scheme) NetBenchConfig {
	maxC := runtime.GOMAXPROCS(0)
	clients := []int{1}
	for c := 2; c <= maxC; c *= 2 {
		clients = append(clients, c)
	}
	if maxC == 1 {
		clients = append(clients, 2)
	}
	return NetBenchConfig{
		Scheme:       scheme,
		N:            100_000,
		Ranges:       512,
		SF:           0.0005,
		Theta:        1.07,
		Clients:      clients,
		Pipeline:     8,
		Duration:     1500 * time.Millisecond,
		UpdateEvery:  2 * time.Millisecond,
		SummaryEvery: 25, // a summary roughly every 50ms under the default cadence
		CacheBytes:   64 << 20,
		VerifyEvery:  16,
		Shards:       64,
		Seed:         1,
		Check:        true,
	}
}

// NetPoint is one client-count measurement over the socket.
type NetPoint struct {
	Clients  int `json:"clients"`
	Pipeline int `json:"pipeline"`

	QPS   float64 `json:"qps"`
	PerOp Latency `json:"per_op_ns"` // batch round trip / pipeline depth
	Batch Latency `json:"batch_rtt_ns"`

	Verified     int   `json:"answers_verified"`
	StaleRetries int   `json:"stale_retries"`
	Updates      int64 `json:"updates"`
	Periods      int64 `json:"periods_closed"`
}

// NetReport is the BENCH_net.json document.
type NetReport struct {
	Scheme     string  `json:"scheme"`
	N          int     `json:"n"`
	Ranges     int     `json:"ranges"`
	SF         float64 `json:"sf"`
	Theta      float64 `json:"theta"`
	Pipeline   int     `json:"pipeline"`
	Workers    int     `json:"workers"`
	DurationMS int64   `json:"duration_ms_per_point"`
	Addr       string  `json:"addr"`

	Points []NetPoint `json:"points"`
	MaxQPS float64    `json:"max_qps"`

	Server NetStats `json:"server"`

	// SweepVerified counts the catalog answers the full client-side
	// sweep verified (correctness + completeness + freshness), including
	// the post-update freshness round; CorrectnessChecked means the
	// sweep ran to completion.
	SweepVerified      int  `json:"sweep_verified"`
	StaleDetected      int  `json:"sweep_stale_detected"`
	CorrectnessChecked bool `json:"correctness_checked"`

	// Verify holds the scheme's verification fast-path counters after
	// the run (nil for schemes without a fast path): proof that the
	// measured qps actually exercised the precomputed path.
	Verify *sigagg.VerifyStats `json:"verify,omitempty"`
}

// netBench owns the system under test for one RunNet: the relation's
// runtime (in memory here; the chaos and fleet soaks lend it their
// durable ones for the final sweep) and the key material clients verify
// under.
type netBench struct {
	cfg      NetBenchConfig
	rt       *wal.Runtime
	scheme   sigagg.Scheme // bound
	pub      sigagg.PublicKey
	srv      *NetServer
	addr     string
	catalog  []workload.RangeQuery
	updateTS int64
}

// clientConfig is the session config every benchmark client uses. Each
// client verifies on one worker, so the client-count sweep is also the
// per-core verification scaling sweep.
func (b *netBench) clientConfig() client.Config {
	return client.Config{
		Scheme:        b.scheme,
		Pub:           b.pub,
		DialTimeout:   5 * time.Second,
		VerifyWorkers: 1,
	}
}

// RunNet executes the networked sweep and returns the report.
func RunNet(cfg NetBenchConfig) (*NetReport, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("server: nil scheme")
	}
	if len(cfg.Clients) == 0 || cfg.N < 16 || cfg.Ranges < 1 || cfg.Pipeline < 1 {
		return nil, fmt.Errorf("server: bad net config %+v", cfg)
	}
	b := &netBench{cfg: cfg, updateTS: 2}

	var qsOpts []core.Option
	if cfg.Shards > 0 {
		qsOpts = append(qsOpts, core.WithShards(cfg.Shards))
	}
	sys, err := core.NewSystem(cfg.Scheme, core.DefaultConfig(), qsOpts...)
	if err != nil {
		return nil, err
	}
	b.rt, b.scheme, b.pub = wal.NewRuntime(sys.DA, sys.QS, nil, 0), sys.Scheme, sys.Pub
	fmt.Printf("net: loading %d records under %s...\n", cfg.N, sys.Scheme.Name())
	recs := workload.Records(workload.Config{N: cfg.N, RecLen: 512, Seed: cfg.Seed})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		return nil, err
	}
	if err := b.rt.Load(msg); err != nil {
		return nil, err
	}
	b.catalog = workload.NewHotRangeCatalog(keys, cfg.Ranges, cfg.SF, cfg.Seed+101)
	if cfg.CacheBytes > 0 {
		if err := EnableCache(sys.QS, cfg.CacheBytes); err != nil {
			return nil, err
		}
		defer sys.QS.DisableAnswerCache()
	}

	maxClients := 0
	for _, c := range cfg.Clients {
		if c > maxClients {
			maxClients = c
		}
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = maxClients + 4
	}
	b.srv = NewNetServer(sys.QS, NetConfig{MaxConns: maxConns})
	ln, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.addr = ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- b.srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.srv.Shutdown(ctx)
		<-serveErr
	}()

	rep := &NetReport{
		Scheme:     sys.Scheme.Name(),
		N:          cfg.N,
		Ranges:     cfg.Ranges,
		SF:         cfg.SF,
		Theta:      cfg.Theta,
		Pipeline:   cfg.Pipeline,
		Workers:    runtime.GOMAXPROCS(0),
		DurationMS: cfg.Duration.Milliseconds(),
		Addr:       b.addr,
	}
	for _, clients := range cfg.Clients {
		pt, err := b.runNetPoint(clients)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *pt)
		if pt.QPS > rep.MaxQPS {
			rep.MaxQPS = pt.QPS
		}
		fmt.Printf("net: clients=%d qps=%9.0f op_p50=%7dns op_p99=%8dns verified=%d stale-retries=%d updates=%d periods=%d\n",
			clients, pt.QPS, pt.PerOp.P50Ns, pt.PerOp.P99Ns, pt.Verified, pt.StaleRetries, pt.Updates, pt.Periods)
	}
	if cfg.Check {
		verified, stale, err := b.sweep()
		if err != nil {
			return nil, err
		}
		rep.SweepVerified = verified
		rep.StaleDetected = stale
		rep.CorrectnessChecked = true
		fmt.Printf("net: full verification sweep passed (%d answers verified, %d staleness detections)\n",
			verified, stale)
	}
	rep.Server = b.srv.Stats()
	if sp, ok := cfg.Scheme.(sigagg.VerifyStatsProvider); ok {
		vs := sp.VerifyStats()
		rep.Verify = &vs
		fmt.Printf("net: verify fast path: %d h2c cache hits / %d misses, %d agg hits, %d table builds\n",
			vs.H2CCacheHits, vs.H2CCacheMisses, vs.AggCacheHits, vs.TableBuilds)
	}
	fmt.Printf("net: peak %.0f qps over TCP loopback; server sent %d MiB across %d conns\n",
		rep.MaxQPS, rep.Server.BytesOut>>20, rep.Server.Conns)
	return rep, nil
}

// startHotWriter launches the single-writer stream every driver
// shares: zipfian hot-head updates at the given cadence, optionally
// closing a ρ-period every summaryEvery updates, each message carried to
// the server by the relation's runtime — the pipeline authserve runs.
// ts is the bench's logical clock, owned exclusively by the writer until
// the returned stop function (which reports updates, periods closed, and
// any writer error) has been called.
func startHotWriter(rt *wal.Runtime, catalog []workload.RangeQuery, theta float64, seed int64,
	every time.Duration, summaryEvery int, ts *int64) func() (int64, int64, error) {
	if every <= 0 {
		return func() (int64, int64, error) { return 0, 0, nil }
	}
	stop := make(chan struct{})
	var done sync.WaitGroup
	var updates, periods int64
	var werr error
	done.Add(1)
	go func() {
		defer done.Done()
		gen := workload.NewHotRangeGen(catalog, theta, seed)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			q := gen.Next()
			*ts++
			msg, err := rt.DA.Update(q.Lo, [][]byte{[]byte(fmt.Sprintf("u-%d", *ts))}, *ts)
			if err != nil {
				werr = fmt.Errorf("server: writer update: %w", err)
				return
			}
			if err := rt.Deliver(msg); err != nil {
				werr = fmt.Errorf("server: writer deliver: %w", err)
				return
			}
			updates++
			if summaryEvery > 0 && updates%int64(summaryEvery) == 0 {
				*ts++
				msg, err := rt.DA.ClosePeriod(*ts)
				if err != nil {
					werr = fmt.Errorf("server: close period: %w", err)
					return
				}
				if err := rt.Deliver(msg); err != nil {
					werr = fmt.Errorf("server: writer deliver summary: %w", err)
					return
				}
				periods++
			}
		}
	}()
	return func() (int64, int64, error) {
		close(stop)
		done.Wait()
		return updates, periods, werr
	}
}

// runNetPoint measures one client count: every client dials its own
// TCP connection, pipelines zipfian batches, and fully verifies every
// VerifyEvery-th batch in the loop (staleness detections trigger the
// protocol's re-query and count separately).
func (b *netBench) runNetPoint(clients int) (*NetPoint, error) {
	stopWriter := startHotWriter(b.rt, b.catalog, b.cfg.Theta, b.cfg.Seed+999,
		b.cfg.UpdateEvery, b.cfg.SummaryEvery, &b.updateTS)
	deadline := time.Now().Add(b.cfg.Duration)

	type clientResult struct {
		batchNS  []int64
		ops      int
		verified int
		stale    int
		err      error
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			cl, err := client.Dial(b.addr, b.clientConfig())
			if err != nil {
				res.err = err
				return
			}
			defer cl.Close()
			if _, err := cl.SyncSummaries(0); err != nil {
				res.err = fmt.Errorf("server: net client %d log-in sync: %w", c, err)
				return
			}
			gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+1000*int64(c+1))
			ranges := make([]core.Range, b.cfg.Pipeline)
			batches := 0
			for time.Now().Before(deadline) {
				for i := range ranges {
					q := gen.Next()
					ranges[i] = core.Range{Lo: q.Lo, Hi: q.Hi}
				}
				t0 := time.Now()
				answers, err := cl.FetchBatch(ranges)
				if err != nil {
					res.err = err
					return
				}
				res.batchNS = append(res.batchNS, time.Since(t0).Nanoseconds())
				res.ops += len(ranges)
				if b.cfg.VerifyEvery > 0 && batches%b.cfg.VerifyEvery == 0 {
					n, stale, err := verifyWithRequery(cl, answers, ranges)
					if err != nil {
						res.err = fmt.Errorf("server: net client %d verification: %w", c, err)
						return
					}
					res.verified += n
					res.stale += stale
				}
				batches++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	updates, periods, werr := stopWriter()
	if werr != nil {
		return nil, werr
	}
	pt := &NetPoint{Clients: clients, Pipeline: b.cfg.Pipeline, Updates: updates, Periods: periods}
	var batch, perOp []int64
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		pt.Verified += results[i].verified
		pt.StaleRetries += results[i].stale
		for _, ns := range results[i].batchNS {
			batch = append(batch, ns)
			perOp = append(perOp, ns/int64(b.cfg.Pipeline))
		}
		pt.QPS += float64(results[i].ops)
	}
	pt.QPS /= elapsed.Seconds()
	pt.Batch = summarize(batch)
	pt.PerOp = summarize(perOp)
	return pt, nil
}

// verifyWithRequery fully verifies a fetched batch. A freshness.ErrStale
// is the protocol succeeding — a certified summary proved an answered
// record has a newer version — so the client does what the paper's user
// does: re-query and verify the fresh answer. Bounded retries; any
// other failure is fatal.
func verifyWithRequery(cl *client.Client, answers []*core.Answer, ranges []core.Range) (verified, stale int, err error) {
	for attempt := 0; ; attempt++ {
		_, err := cl.Verify(answers, ranges)
		if err == nil {
			return len(answers), stale, nil
		}
		if !errors.Is(err, freshness.ErrStale) || attempt >= 3 {
			return 0, stale, err
		}
		stale++
		answers, err = cl.FetchBatch(ranges)
		if err != nil {
			return 0, stale, err
		}
	}
}

// sweepCatalog fetches every catalog range over cl's session in batches
// and fully verifies each answer, re-querying on proven staleness.
func sweepCatalog(cl *client.Client, catalog []workload.RangeQuery) (verified, stale int, err error) {
	const sweepBatch = 32
	for at := 0; at < len(catalog); at += sweepBatch {
		end := min(at+sweepBatch, len(catalog))
		ranges := make([]core.Range, 0, end-at)
		for _, q := range catalog[at:end] {
			ranges = append(ranges, core.Range{Lo: q.Lo, Hi: q.Hi})
		}
		answers, err := cl.FetchBatch(ranges)
		if err != nil {
			return verified, stale, err
		}
		n, s, err := verifyWithRequery(cl, answers, ranges)
		if err != nil {
			return verified, stale, fmt.Errorf("server: sweep batch at %d: %w", at, err)
		}
		verified += n
		stale += s
	}
	return verified, stale, nil
}

// sweepRuntime runs the sweep below for a soak that owns a runtime and a
// live server over it at addr, advancing the soak's clock ts: every
// catalog range verifies, and freshly-invalidated ranges must come back
// with the new record — the zero-silent-freshness-violations check.
func sweepRuntime(rt *wal.Runtime, scheme sigagg.Scheme, pub sigagg.PublicKey, addr string,
	catalog []workload.RangeQuery, ts *int64) (int, int, error) {
	nb := &netBench{rt: rt, scheme: scheme, pub: pub, addr: addr, catalog: catalog, updateTS: *ts}
	verified, stale, err := nb.sweep()
	*ts = nb.updateTS
	return verified, stale, err
}

// sweep is the full client-side verification sweep: a fresh verifying
// client fetches every catalog range over the socket and verifies each
// answer's correctness, completeness and freshness; then invalidating
// updates land (with a period close, so the freshness stream reflects
// them) and the hottest ranges are re-queried, requiring both the fresh
// record and a passing verification.
func (b *netBench) sweep() (verified, stale int, err error) {
	cl, err := client.Dial(b.addr, b.clientConfig())
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	if _, err := cl.SyncSummaries(0); err != nil {
		return 0, 0, err
	}
	if verified, stale, err = sweepCatalog(cl, b.catalog); err != nil {
		return verified, stale, err
	}
	// Invalidating updates with a summary close: the next serve must
	// carry the fresh record and still verify end to end.
	for i := 0; i < 8 && i < len(b.catalog); i++ {
		q := b.catalog[i]
		b.updateTS++
		want := b.updateTS
		msg, err := b.rt.DA.Update(q.Lo, [][]byte{[]byte(fmt.Sprintf("inval-%d", want))}, want)
		if err != nil {
			return verified, stale, err
		}
		if err := b.rt.Deliver(msg); err != nil {
			return verified, stale, err
		}
		b.updateTS++
		msg, err = b.rt.DA.ClosePeriod(b.updateTS)
		if err != nil {
			return verified, stale, err
		}
		if err := b.rt.Deliver(msg); err != nil {
			return verified, stale, err
		}
		ans, _, err := cl.Query(q.Lo, q.Hi)
		if err != nil {
			return verified, stale, fmt.Errorf("server: post-update verify [%d,%d]: %w", q.Lo, q.Hi, err)
		}
		verified++
		// ClosePeriod may have re-certified the record again (the §3.1
		// multi-update rule), so accept any certification at or after
		// the invalidating update.
		fresh := false
		for _, r := range ans.Chain.Records {
			if r.Key == q.Lo && r.TS >= want {
				fresh = true
			}
		}
		if !fresh {
			return verified, stale, fmt.Errorf("server: stale answer for [%d,%d] after update ts=%d", q.Lo, q.Hi, want)
		}
	}
	return verified, stale, nil
}
