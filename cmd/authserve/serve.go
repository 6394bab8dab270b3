package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
)

// serveFlags is the parsed `authserve serve` command line.
type serveFlags struct {
	addr, scheme, keyseed string
	names                 []string // relation names; names[0] is the outer relation
	n, joinEvery, shards  int
	cacheMB               int64
	filterBits            float64
	updEveryMS            float64
	sumEvery              int
	net                   server.NetConfig
	statsAddr             string
	repl                  bool
	dataDir               string
	snapEvery             int
	wal                   wal.Options
}

func parseServeFlags(args []string) (*serveFlags, error) {
	f := &serveFlags{}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:7845", "listen address")
	fs.StringVar(&f.scheme, "scheme", "bas", "scheme (bas, crsa, xortest)")
	fs.StringVar(&f.keyseed, "keyseed", "demo", "deterministic demo key seed (share with clients); relation rel signs under the key derived from keyseed:scheme:rel")
	catalog := fs.String("catalog", core.DefaultRelation, "comma-separated relation names (first = outer relation, the one with projectable attributes and an answer cache; the rest are join inners)")
	fs.IntVar(&f.n, "n", 100_000, "outer relation size (keys 10, 20, …, 10n)")
	fs.IntVar(&f.joinEvery, "join-every", 3, "inner relations hold every k-th outer key")
	fs.Float64Var(&f.filterBits, "filter-bits", 8, "Bloom bits per key for the inner relations' certified join filters")
	fs.IntVar(&f.shards, "shards", 64, "QueryServer key-range shards per relation")
	fs.Int64Var(&f.cacheMB, "cache-mb", 64, "budget, in MiB, of the outer relation's answer cache (bare scans) and, separately, of the plan cache (plans with operators); each holds nothing until such a plan is served (0 = uncached)")
	fs.Float64Var(&f.updEveryMS, "update-every", 50, "background writer cadence (ms; 0 = static catalog)")
	fs.IntVar(&f.sumEvery, "summary-every", 20, "close a ρ-period on every relation every k updates (0 = never)")
	fs.IntVar(&f.net.MaxConns, "max-conns", 1024, "concurrent connection cap (0 = unlimited)")
	fs.IntVar(&f.net.MaxFrame, "max-frame", 1<<20, "request frame size cap (bytes)")
	idleSec := fs.Int("idle-timeout", 300, "drop connections idle for this many seconds (0 = never)")
	readSec := fs.Int("read-timeout", 30, "cut off peers that announce a frame and stall its payload (seconds; 0 = never)")
	writeSec := fs.Int("write-timeout", 30, "cut off peers that stop draining responses (seconds; 0 = never)")
	fs.IntVar(&f.net.MaxInflight, "max-inflight", 0, "admission control: concurrent requests executing (0 = unlimited)")
	fs.IntVar(&f.net.MaxPending, "max-pending", 0, "admission control: requests queued beyond the in-flight cap before shedding (with -max-inflight)")
	fs.StringVar(&f.statsAddr, "stats-addr", "", "serve Prometheus text metrics at this address (empty = off)")
	fs.BoolVar(&f.repl, "repl", true, "serve the replication feed to `authserve follow` replicas (one-relation catalogs only)")
	fs.StringVar(&f.dataDir, "data", "", "durable state directory, one write-ahead log + snapshot per relation under <dir>/<rel> (empty = in-memory only)")
	fs.IntVar(&f.snapEvery, "snap-every", 2000, "background snapshot + log truncation every k logged messages per relation (0 = boot-time snapshots only)")
	fs.DurationVar(&f.wal.GroupCommit, "group-commit", 2*time.Millisecond, "WAL fsync batching window (0 = fsync every append)")
	fs.BoolVar(&f.wal.NoSync, "nosync", false, "skip WAL fsync entirely (throwaway data only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	f.net.IdleTimeout = time.Duration(*idleSec) * time.Second
	f.net.ReadTimeout = time.Duration(*readSec) * time.Second
	f.net.WriteTimeout = time.Duration(*writeSec) * time.Second
	if f.names = splitList(*catalog); len(f.names) == 0 {
		return nil, fmt.Errorf("-catalog names no relation")
	}
	if f.joinEvery < 2 {
		return nil, fmt.Errorf("-join-every must be at least 2")
	}
	return f, nil
}

// catalogServer is a booted authserve: one relation runtime per
// catalog relation, the planner over all of them, and the listener.
type catalogServer struct {
	f      *serveFlags
	scheme sigagg.Scheme
	rts    []*wal.Runtime // in -catalog order
	eng    *query.Engine
	srv    *server.NetServer
	ln     net.Listener
	src    *replica.Source // nil unless the feed is on

	// writer state
	updates int64
	nextIns int // next outer key index to drip into the last inner relation
}

// synthRecords builds relation idx of the synthetic catalog: the outer
// relation (0) holds keys 10, 20, …, 10n with two attribute slots; every
// inner relation holds every joinEvery-th outer key with one slot — so
// joins match a fixed, known fraction and the rest need non-match
// proofs.
func synthRecords(name string, idx, n, joinEvery int) []*core.Record {
	var recs []*core.Record
	for i := 1; i <= n; i++ {
		k := int64(i) * 10
		if idx == 0 {
			recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{
				[]byte(fmt.Sprintf("name-%d", k)), []byte(fmt.Sprintf("payload-%d", k)),
			}})
		} else if i%joinEvery == 0 {
			recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("%s-%d", name, k))}})
		}
	}
	return recs
}

// boot brings the catalog up: every relation recovers from its store or
// loads and signs its synthetic records, the planner is wired to all of
// them, and the listener is bound (not yet serving).
func boot(f *serveFlags) (s *catalogServer, err error) {
	s = &catalogServer{f: f, nextIns: 1}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.scheme, err = schemeByName(f.scheme); err != nil {
		return s, err
	}
	cat, err := core.NewCatalog(s.scheme, core.DefaultConfig(), 0)
	if err != nil {
		return s, err
	}
	engOpt := query.WithoutCache()
	if f.cacheMB > 0 {
		engOpt = query.WithCacheBytes(f.cacheMB << 20)
	}
	s.eng = query.NewEngine(engOpt)
	for i, name := range f.names {
		var daOpts []core.DAOption
		if i == 0 {
			// The outer relation signs attribute-stripped records plus
			// per-attribute signatures, so projections verify (§3.4).
			daOpts = append(daOpts, core.WithAttrSigning())
		}
		rel, err := cat.AddRelation(name, relKeyRand(f.keyseed, f.scheme, name), daOpts, []core.Option{core.WithShards(f.shards)})
		if err != nil {
			return s, err
		}
		var store *wal.Store
		if f.dataDir != "" {
			if store, err = wal.Open(filepath.Join(f.dataDir, name), f.wal); err != nil {
				return s, fmt.Errorf("open durable state for %q: %w", name, err)
			}
		}
		rt := wal.NewRuntime(rel.DA, rel.QS, store, f.snapEvery)
		s.rts = append(s.rts, rt)
		st, recovered, err := rt.Recover()
		if err != nil {
			return s, fmt.Errorf("recover %q: %w", name, err)
		}
		if recovered {
			// Restart: snapshot + log tail, no owner round trip, no signing.
			fmt.Printf("authserve: relation %q: recovered %d records, %d summaries (snapshot lsn %d, %d replayed, %d overlap-skipped)\n",
				name, rel.QS.Len(), len(rel.QS.SummariesSince(0)), st.SnapshotLSN, st.Replayed, st.Skipped)
		} else {
			fmt.Printf("authserve: relation %q: loading under %s (keyseed %q)...\n", name, rel.Scheme.Name(), f.keyseed)
			load, err := rel.DA.Load(synthRecords(name, i, f.n, f.joinEvery), 1)
			if err != nil {
				return s, fmt.Errorf("load %q: %w", name, err)
			}
			closed, err := rel.DA.ClosePeriod(2)
			if err != nil {
				return s, err
			}
			if err := rt.Load(load, closed); err != nil {
				return s, err
			}
		}
		if rel.QS.Len() == 0 {
			return s, fmt.Errorf("relation %q is empty", name)
		}
		if err := s.eng.AddRelation(name, rel.QS); err != nil {
			return s, err
		}
	}
	if err := s.certifyFilters(s.ts()); err != nil {
		return s, err
	}
	if f.cacheMB > 0 {
		if err := server.EnableCache(s.rts[0].QS, f.cacheMB<<20); err != nil {
			return s, err
		}
	}
	s.srv = server.NewNetServer(s.rts[0].QS, f.net)
	s.srv.EnablePlans(s.eng)
	if f.repl && len(s.rts) == 1 {
		// Followers subscribe over the same listener; with a durable store
		// they can catch up from the WAL tail, otherwise every
		// (re)subscription costs a full bootstrap image.
		s.src = replica.NewSource(s.rts[0], replica.SourceConfig{WriteTimeout: f.net.WriteTimeout})
		s.srv.EnableReplication(s.src)
	}
	s.ln, err = s.srv.Listen(f.addr)
	return s, err
}

// ts is the logical time the catalog has reached across its relations.
func (s *catalogServer) ts() int64 {
	var ts int64
	for _, rt := range s.rts {
		ts = max(ts, rt.TS())
	}
	return ts
}

// certifyFilters (re)certifies every inner relation's partitioned Bloom
// filter at ts, so BF joins have their fast negative path.
func (s *catalogServer) certifyFilters(ts int64) error {
	for i, rt := range s.rts[1:] {
		name := s.f.names[i+1]
		fc, err := rt.DA.CertifyFilter(64, s.f.filterBits, ts)
		if err != nil {
			return fmt.Errorf("certify filter for %q: %w", name, err)
		}
		if err := s.eng.SetFilter(name, fc); err != nil {
			return err
		}
	}
	return nil
}

// beat is one tick of the background writer at logical time ts: update
// one outer record; every -summary-every updates, drip one new key into
// the last inner relation (so join results change and cached composites
// invalidate), close a ρ-period on every relation and re-certify the
// inner filters at the close. Every message reaches its server through
// its relation's runtime.
func (s *catalogServer) beat(ts int64) error {
	outer, n := s.rts[0], s.rts[0].QS.Len()
	key := (s.updates%int64(n) + 1) * 10
	msg, err := outer.DA.Update(key, [][]byte{
		[]byte(fmt.Sprintf("name-%d-u%d", key, ts)), []byte(fmt.Sprintf("payload-%d-u%d", key, ts)),
	}, ts)
	if err != nil {
		return nil // non-monotonic ts under a coarse clock: skip the beat
	}
	if err := outer.Deliver(msg); err != nil {
		return err
	}
	s.updates++
	if s.f.sumEvery <= 0 || s.updates%int64(s.f.sumEvery) != 0 {
		return nil
	}
	if last := len(s.rts) - 1; last > 0 {
		inner := s.rts[last]
		for dripped := false; !dripped && s.nextIns <= n; s.nextIns++ {
			if s.nextIns%s.f.joinEvery == 0 {
				continue // already an inner key
			}
			k := int64(s.nextIns) * 10
			msg, err := inner.DA.Insert(&core.Record{
				Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("%s-late-%d", s.f.names[last], k))},
			}, ts)
			if err != nil {
				continue // dripped before a restart
			}
			if err := inner.Deliver(msg); err != nil {
				return err
			}
			dripped = true
		}
	}
	for _, rt := range s.rts {
		msg, err := rt.DA.ClosePeriod(ts + 1)
		if err != nil {
			continue
		}
		if err := rt.Deliver(msg); err != nil {
			return err
		}
	}
	return s.certifyFilters(ts + 1)
}

// metricFns is what -stats-addr exports: listener, planner and
// verification counters, every relation's WAL positions, the feed's.
func (s *catalogServer) metricFns() []server.MetricFn {
	fns := []server.MetricFn{s.srv.Metrics, server.QueryMetrics(s.eng), server.VerifyMetrics(s.scheme)}
	if s.f.dataDir != "" {
		logs := make(map[string]*wal.Log, len(s.rts))
		for i, rt := range s.rts {
			logs[s.f.names[i]] = rt.Log()
		}
		fns = append(fns, server.WalMetrics(logs))
	}
	if s.src != nil {
		fns = append(fns, sourceMetrics(s.src))
	}
	return fns
}

// close releases the runtimes (waiting out a background snapshot) and
// their stores.
func (s *catalogServer) close() {
	for _, rt := range s.rts {
		if err := rt.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "authserve: close: %v\n", err)
		}
	}
}

func runServe(args []string) error {
	f, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	s, err := boot(f)
	if err != nil {
		return err
	}
	defer s.close()
	fmt.Printf("authserve: listening on %s with catalog %v (outer %q: %d records, %d shards)\n",
		s.srv.Addr(), f.names, f.names[0], s.rts[0].QS.Len(), s.rts[0].QS.Shards())
	switch {
	case s.src != nil:
		fmt.Printf("authserve: replication feed enabled (run: authserve follow -primary %s)\n", s.srv.Addr())
	case f.repl:
		fmt.Printf("authserve: replication feed off: it carries one relation and this catalog has %d\n", len(f.names))
	}
	if f.statsAddr != "" {
		bound, stopStats, err := server.ServeMetrics(f.statsAddr, s.metricFns()...)
		if err != nil {
			return fmt.Errorf("stats listener: %w", err)
		}
		defer stopMetrics(stopStats)
		fmt.Printf("authserve: metrics on http://%s/metrics\n", bound)
	}

	// Background writer: the trusted aggregator keeps updating records
	// and closing ρ-periods, so remote clients see a live freshness
	// stream. Timestamps are logical milliseconds since boot, offset past
	// whatever the recovered state already reached.
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if f.updEveryMS <= 0 {
			return
		}
		tick := time.NewTicker(time.Duration(f.updEveryMS * float64(time.Millisecond)))
		defer tick.Stop()
		base, start := s.ts(), time.Now()
		for {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			if err := s.beat(base + time.Since(start).Milliseconds() + 2); err != nil {
				fmt.Fprintf(os.Stderr, "authserve: writer: %v\n", err)
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.srv.Serve(s.ln) }()
	return serveUntilSignal("authserve", s.srv, serveErr, func() {
		close(stopWriter)
		<-writerDone
	}, func() {
		st, es := s.srv.Stats(), s.eng.Stats()
		fmt.Printf("authserve: served %s (%d inner scans for join runs, %d Bloom negatives), %d MiB across %d conns\n",
			requestCounts(st), es.JoinProbes, es.BFNegatives, st.BytesOut>>20, st.Conns)
	})
}

// stopMetrics shuts the stats listener down with a short grace.
func stopMetrics(stop func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	stop(ctx)
}

// serveUntilSignal is the tail of both daemons: wait for SIGINT/SIGTERM
// (or the listener failing), stop the background work, drain, report.
func serveUntilSignal(who string, srv *server.NetServer, serveErr <-chan error, stopBackground, report func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("%s: %v: draining...\n", who, s)
	case err := <-serveErr:
		stopBackground()
		return err
	}
	stopBackground()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: forced shutdown: %v\n", who, err)
	}
	<-serveErr
	report()
	return nil
}
