package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
)

// flags is the parsed command line of a serving role. serve and follow
// take the catalog and the listener verifying clients dial alike; the
// rest is what only one of them has — the primary its scheme, demo keys,
// owner, writer and durable stores, a replica the feed it mirrors.
type flags struct {
	addr      string
	names     []string // relation names; names[0] is the outer relation
	shards    int
	cacheMB   int64
	net       server.NetConfig
	statsAddr string

	// serve
	keyseed      string
	scheme       sigagg.Scheme // -scheme's, unbound
	n, joinEvery int
	filterBits   float64
	updEveryMS   float64
	sumEvery     int
	dataDir      string
	snapEvery    int
	wal          wal.Options

	// follow
	primary     string
	feedTimeout time.Duration
}

func parseFlags(role string, args []string) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	catalog := fs.String("catalog", core.DefaultRelation, "comma-separated relation names, the same on serve, follow and query (first = outer relation, the one with projectable attributes; the rest are join inners)")
	fs.IntVar(&f.shards, "shards", 64, "QueryServer key-range shards per relation")
	fs.Int64Var(&f.cacheMB, "cache-mb", 64, "budget, in MiB, of the one answer cache: bare scans and plans of every relation share it, and it keeps an answer only once it has been asked for twice (0 = uncached)")
	fs.IntVar(&f.net.MaxConns, "max-conns", 1024, "concurrent connection cap (0 = unlimited)")
	idleSec := fs.Int("idle-timeout", 300, "drop connections idle for this many seconds (0 = never)")
	readSec := fs.Int("read-timeout", 30, "cut off peers that announce a frame and stall its payload (seconds; 0 = never)")
	writeSec := fs.Int("write-timeout", 30, "cut off peers that stop draining responses (seconds; 0 = never)")
	fs.StringVar(&f.statsAddr, "stats-addr", "", "serve Prometheus text metrics at this address (empty = off)")
	feedSec := 10
	schemeName := "bas"
	if role == "serve" {
		fs.StringVar(&schemeName, "scheme", schemeName, "scheme (bas, crsa, xortest)")
		fs.StringVar(&f.keyseed, "keyseed", "demo", "deterministic demo key seed (share with clients); relation rel signs under the key derived from keyseed:scheme:rel")
		fs.StringVar(&f.addr, "addr", "127.0.0.1:7845", "listen address")
		fs.IntVar(&f.n, "n", 100_000, "outer relation size (keys 10, 20, …, 10n)")
		fs.IntVar(&f.joinEvery, "join-every", 3, "inner relations hold every k-th outer key")
		fs.Float64Var(&f.filterBits, "filter-bits", 8, "Bloom bits per key for the inner relations' certified join filters")
		fs.Float64Var(&f.updEveryMS, "update-every", 50, "background writer cadence (ms; 0 = static catalog)")
		fs.IntVar(&f.sumEvery, "summary-every", 20, "close a ρ-period on every relation every k updates (0 = never)")
		fs.IntVar(&f.net.MaxFrame, "max-frame", 1<<20, "request frame size cap (bytes)")
		fs.IntVar(&f.net.MaxInflight, "max-inflight", 0, "admission control: concurrent requests executing (0 = unlimited)")
		fs.IntVar(&f.net.MaxPending, "max-pending", 0, "admission control: requests queued beyond the in-flight cap before shedding (with -max-inflight)")
		fs.StringVar(&f.dataDir, "data", "", "durable state directory, one write-ahead log + snapshot per relation under <dir>/<rel> (empty = in-memory only)")
		fs.IntVar(&f.snapEvery, "snap-every", 2000, "background snapshot + log truncation every k logged messages per relation (0 = boot-time snapshots only)")
		fs.DurationVar(&f.wal.GroupCommit, "group-commit", 2*time.Millisecond, "WAL fsync batching window (0 = fsync every append)")
		fs.BoolVar(&f.wal.NoSync, "nosync", false, "skip WAL fsync entirely (throwaway data only)")
	} else {
		fs.StringVar(&f.addr, "addr", "127.0.0.1:7855", "listen address for verifying clients")
		fs.StringVar(&f.primary, "primary", "127.0.0.1:7845", "primary server address (replication feeds)")
		fs.IntVar(&feedSec, "feed-timeout", feedSec, "redial the primary when a feed stalls this long (seconds)")
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	f.net.IdleTimeout = time.Duration(*idleSec) * time.Second
	f.net.ReadTimeout = time.Duration(*readSec) * time.Second
	f.net.WriteTimeout = time.Duration(*writeSec) * time.Second
	f.feedTimeout = time.Duration(feedSec) * time.Second
	if f.names = splitList(*catalog); len(f.names) == 0 {
		return nil, fmt.Errorf("-catalog names no relation")
	}
	if role != "serve" {
		return f, nil
	}
	if f.joinEvery < 2 {
		return nil, fmt.Errorf("-join-every must be at least 2")
	}
	var err error
	f.scheme, err = schemeByName(schemeName)
	return f, err
}

// node is a booted authserve of either role: the planner over the
// catalog's relations and the listener.
type node struct {
	f   *flags
	eng *query.Engine
	srv *server.NetServer
	ln  net.Listener
}

// boot brings an authserve of either role up to a bound listener (not yet
// serving) over f's catalog. The roles differ only in feed, which supplies
// each relation's query server: on the primary one a relation runtime
// carries the owner's messages to, on a replica one a replica.Follower
// mirrors. The engine's one answer cache serves every relation — safe on a
// replica too: its entries are stamped with the shard epochs, which Apply
// and a bootstrap's Restore both advance.
func boot(f *flags, feed func(i int, name string) (*core.QueryServer, error)) (*node, error) {
	n := &node{f: f, eng: query.NewEngine(query.WithCacheBytes(f.cacheMB << 20))}
	var outer *core.QueryServer
	for i, name := range f.names {
		qs, err := feed(i, name)
		if err == nil {
			err = n.eng.AddRelation(name, qs)
		}
		if err != nil {
			return nil, err
		}
		if i == 0 {
			outer = qs
		}
	}
	n.srv = server.NewNetServer(outer, f.net)
	n.srv.EnablePlans(n.eng)
	var err error
	n.ln, err = n.srv.Listen(f.addr)
	return n, err
}

// metricFns is what -stats-addr exports: listener and planner counters,
// then the role's own. A server verifies nothing, so it has no
// verification counters to export.
func (n *node) metricFns(role ...server.MetricFn) []server.MetricFn {
	return append([]server.MetricFn{n.srv.Metrics, server.QueryMetrics(n.eng)}, role...)
}

// run serves until SIGINT/SIGTERM (or the listener failing), then stops
// the role's background work, drains, and reports.
func (n *node) run(who string, metrics []server.MetricFn, stopBackground, report func()) error {
	if n.f.statsAddr != "" {
		bound, stopStats, err := server.ServeMetrics(n.f.statsAddr, metrics...)
		if err != nil {
			stopBackground()
			return fmt.Errorf("stats listener: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			stopStats(ctx)
		}()
		fmt.Printf("%s: metrics on http://%s/metrics\n", who, bound)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- n.srv.Serve(n.ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var err error
	select {
	case s := <-sig:
		fmt.Printf("%s: %v: draining...\n", who, s)
	case err = <-serveErr: // never nil
	}
	stopBackground()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: forced shutdown: %v\n", who, err)
	}
	<-serveErr
	report()
	return nil
}
