// Command authserve runs the untrusted publishing server of the
// three-party protocol as a network daemon. Every authserve is a
// catalog of 1..k named relations (-catalog, default one): each relation
// is loaded from the trusted data aggregator under its own key, kept
// live by a background update/ρ-period writer, and carried from owner to
// server by one relation runtime (internal/wal.Runtime). The listener
// serves verifiable query plans over the catalog — a range selection on
// one relation is the plan that is one scan — over TCP (length-prefixed
// wire frames, pipelined, zero-copy from the one answer cache) and streams
// certified freshness summaries.
//
// With -data <dir> the pipeline is durable: every dissemination
// message is write-ahead logged under <dir>/<relation> (group-committed
// fsyncs; period closes fenced eagerly) and each relation is
// periodically snapshotted in the background with log truncation, so a
// killed server — SIGKILL included — reboots from the directory to its
// exact pre-crash state without re-contacting the owner (see
// DESIGN.md "Durability & recovery").
//
// Every relation feeds replication: a follower started with `authserve
// follow -primary <addr> -catalog <the same list>` subscribes to each
// one, bootstraps its image off the primary (records, summaries and
// certified join filter: snapshot + WAL tail) and then mirrors its update
// stream, serving verifying clients the same plans — joins and
// projections included — through the same boot path. Replication is an
// availability mechanism only — a follower holds no keys, and clients
// verify every answer against the owner's signatures no matter which
// replica produced it (DESIGN.md "Replication & the untrusted fleet").
// `authserve query -addr a,b,c` treats the comma-separated list as a
// fleet: it fails over on faults and quarantines replicas caught
// misbehaving.
//
// Usage:
//
//	authserve serve [flags]    run the primary server (default)
//	authserve follow [flags]   run a replica off a primary's feed
//	authserve query [flags]    connect as a verifying client
//
// The demo derives each relation's key pair deterministically from
// keyseed:scheme:relation, so a remote `authserve query` (or follow)
// given the same -keyseed, -scheme and -catalog verifies answers without
// a key-distribution protocol; production deployments distribute the
// public keys out of band instead.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

func main() {
	args := os.Args[1:]
	mode := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	var err error
	switch mode {
	case "serve":
		err = runServe(args)
	case "follow":
		err = runFollow(args)
	case "query":
		err = runQuery(args)
	default:
		fmt.Fprintf(os.Stderr, "usage: authserve [serve|follow|query] [flags]\n")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "authserve %s: %v\n", mode, err)
		os.Exit(1)
	}
}

// detRand is a deterministic byte stream (SHA-256 in counter mode over
// the seed), used only to derive reproducible demo key pairs shared by
// -keyseed.
type detRand struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetRand(seed string) *detRand {
	return &detRand{seed: sha256.Sum256([]byte("authserve-demo-key:" + seed))}
}

func (d *detRand) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			h := sha256.New()
			h.Write(d.seed[:])
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], d.ctr)
			d.ctr++
			h.Write(c[:])
			d.buf = h.Sum(nil)
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func schemeByName(name string) (sigagg.Scheme, error) {
	switch strings.TrimSpace(name) {
	case "bas":
		return bas.New(0), nil
	case "crsa":
		return crsa.New(crsa.DefaultBits), nil
	case "xortest":
		return xortest.New(), nil
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// relKeyRand derives one relation's deterministic demo key stream:
// keyseed:scheme:rel. Folding the relation name in gives every relation
// its own key pair (cryptographic domain separation) that serve, follow
// and query all re-derive the same way.
func relKeyRand(keyseed, schemeName, rel string) *detRand {
	return newDetRand(keyseed + ":" + schemeName + ":" + rel)
}

// relKey re-derives relation rel's demo public key and the scheme bound
// to it.
func relKey(scheme sigagg.Scheme, keyseed, rel string) (sigagg.Scheme, sigagg.PublicKey, error) {
	_, pub, err := scheme.KeyGen(relKeyRand(keyseed, scheme.Name(), rel))
	if err != nil {
		return nil, nil, fmt.Errorf("keygen for relation %q: %w", rel, err)
	}
	bound, err := sigagg.Bind(scheme, pub)
	return bound, pub, err
}

// sourceMetrics adapts the primary's replication-hub counters for a
// scrape, one sample per relation under a rel label.
func sourceMetrics(names []string, srcs []*replica.Source) server.MetricFn {
	return func(m *server.MetricsBuf) {
		m.PerRel("authdb_repl_streams_active", "Follower streams currently attached.", "gauge", names, func(i int) uint64 { return uint64(srcs[i].Stats().Active) })
		m.PerRel("authdb_repl_streams_total", "Follower streams ever started.", "counter", names, func(i int) uint64 { return srcs[i].Stats().Streams })
		m.PerRel("authdb_repl_bootstraps_total", "Relation images served to followers.", "counter", names, func(i int) uint64 { return srcs[i].Stats().Bootstraps })
		m.PerRel("authdb_repl_fanout_total", "Replicated records fanned out across all followers.", "counter", names, func(i int) uint64 { return srcs[i].Stats().Fanout })
		m.PerRel("authdb_repl_last_lsn", "Last LSN published on the feed.", "gauge", names, func(i int) uint64 { return srcs[i].LastLSN() })
	}
}

// followerMetrics adapts a replica's feed counters for a scrape, one
// sample per relation under a rel label. Lag is the headline: how many
// dissemination messages this replica is behind the primary as of the
// last feed frame.
func followerMetrics(names []string, fls []*replica.Follower) server.MetricFn {
	return func(m *server.MetricsBuf) {
		m.PerRel("authdb_replica_applied_lsn", "Last dissemination message applied from the feed.", "gauge", names, func(i int) uint64 { return fls[i].AppliedLSN() })
		m.PerRel("authdb_replica_primary_lsn", "Primary's LSN as last observed on the feed.", "gauge", names, func(i int) uint64 { return fls[i].PrimaryLSN() })
		m.PerRel("authdb_replica_lag", "Dissemination messages behind the primary.", "gauge", names, func(i int) uint64 { return fls[i].Lag() })
		m.PerRel("authdb_replica_bootstraps_total", "Relation images installed.", "counter", names, func(i int) uint64 { return fls[i].Stats().Bootstraps })
		m.PerRel("authdb_replica_records_total", "Replicated records applied.", "counter", names, func(i int) uint64 { return fls[i].Stats().Records })
		m.PerRel("authdb_replica_reconnects_total", "Feed sessions re-established.", "counter", names, func(i int) uint64 { return fls[i].Stats().Reconnects })
	}
}

// bootFollower boots an untrusted replica of the primary's catalog: each
// relation's query server is a replica.Follower's, which mirrors that
// relation's feed once its Run is started.
func bootFollower(f *flags) (*node, []*replica.Follower, error) {
	var fls []*replica.Follower
	n, err := boot(f, func(_ int, name string) (*core.QueryServer, error) {
		// The replica never signs, but its QueryServer builds aggregation
		// structures under the bound scheme so answers carry the exact
		// proofs clients expect.
		bound, _, err := relKey(f.scheme, f.keyseed, name)
		if err != nil {
			return nil, err
		}
		fl, err := replica.NewFollower(replica.FollowerConfig{
			Rel:         name,
			Scheme:      bound,
			QSOpts:      []core.Option{core.WithShards(f.shards)},
			ReadTimeout: f.feedTimeout,
		})
		if err != nil {
			return nil, err
		}
		fls = append(fls, fl)
		return fl.QS(), nil
	})
	return n, fls, err
}

// runFollow runs an untrusted replica: it bootstraps every relation of
// the catalog from the primary's replication feed, keeps mirroring their
// update streams, and serves verifying clients exactly as the primary
// does — joins included, since a relation's certified filter is part of
// its image and of its feed. The follower holds no signing keys and
// verifies nothing it applies — replication buys availability only, and
// every client independently verifies authenticity, completeness, and
// freshness against the owner's public keys regardless of which replica
// answered.
func runFollow(args []string) error {
	f, err := parseFlags("follow", args)
	if err != nil {
		return err
	}
	n, fls, err := bootFollower(f)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var feeds sync.WaitGroup
	for _, fl := range fls {
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			fl.Run(ctx, f.primary)
		}()
	}
	fmt.Printf("authserve follow: listening on %s, replicating %v from %s\n", n.ln.Addr(), f.names, f.primary)

	// Wait (bounded) for every relation's bootstrap image so the ready
	// line means "serving the catalog", then serve until signalled. The
	// listener is live throughout either way; early clients just see an
	// empty-relation error and retry.
	for i, fl := range fls {
		for tries := 0; tries < 300 && fl.AppliedLSN() == 0; tries++ {
			time.Sleep(100 * time.Millisecond)
		}
		if fl.AppliedLSN() > 0 {
			fmt.Printf("authserve follow: relation %q bootstrapped at lsn %d (lag %d)\n", f.names[i], fl.AppliedLSN(), fl.Lag())
		} else {
			fmt.Fprintf(os.Stderr, "authserve follow: primary %s not reachable yet for relation %q; still retrying\n", f.primary, f.names[i])
		}
	}

	return n.run("authserve follow", n.metricFns(followerMetrics(f.names, fls)), func() {
		cancel()
		feeds.Wait()
	}, func() {
		st := n.srv.Stats()
		fmt.Printf("authserve follow: served %s across %d conns\n", requestCounts(st), st.Conns)
		for i, fl := range fls {
			fst := fl.Stats()
			fmt.Printf("authserve follow: relation %q: applied %d records, %d bootstraps, %d reconnects, final lag %d\n",
				f.names[i], fst.Records, fst.Bootstraps, fst.Reconnects, fst.Lag)
		}
	})
}

// requestCounts words a listener's per-kind request counters for the
// closing line, in the protocol table's order.
func requestCounts(st server.NetStats) string {
	var parts []string
	for _, row := range wire.Kinds {
		if n, ok := st.Requests[row.Kind]; ok {
			parts = append(parts, fmt.Sprintf("%d '%c' requests", n, row.Kind))
		}
	}
	return strings.Join(parts, ", ")
}

// runQuery connects as a verifying client and issues -count copies of one
// plan, pipelined: -lo/-hi alone is the range selection (a bare scan) on
// the first catalog relation, and -rel, -join and -attrs add to it.
func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7845", "server address(es); comma-separate a replica fleet to fail over across")
	schemeName := fs.String("scheme", "bas", "scheme (must match the server)")
	keyseed := fs.String("keyseed", "demo", "deterministic demo key seed (must match the server)")
	lo := fs.Int64("lo", 0, "range low key")
	hi := fs.Int64("hi", 1000, "range high key")
	count := fs.Int("count", 1, "repeat the query this many times (pipelined)")
	retries := fs.Int("retries", 3, "attempts per request across reconnects/backoff (1 = fail fast)")
	reqSec := fs.Int("request-timeout", 30, "per-request deadline (seconds; 0 = none)")
	catalog := fs.String("catalog", core.DefaultRelation, "comma-separated relation names of the server's catalog (must match the server's -catalog)")
	rel := fs.String("rel", "", "relation to select from (default: first catalog relation)")
	joinRel := fs.String("join", "", "equi-join the selection against this relation")
	method := fs.String("method", "bf", "join non-match proof method: bf (certified Bloom filter) or bv (boundary values)")
	attrsFlag := fs.String("attrs", "", "comma-separated attribute slots to project (empty = the chained records)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := schemeByName(*schemeName)
	if err != nil {
		return err
	}
	names := splitList(*catalog)
	if len(names) == 0 {
		return fmt.Errorf("-catalog names no relation")
	}
	// Re-derive every relation's demo public key; the session's base key,
	// and the scheme it verifies under, are the first relation's.
	relations := make(map[string]sigagg.PublicKey, len(names))
	var bound sigagg.Scheme
	for i, name := range names {
		b, pub, err := relKey(scheme, *keyseed, name)
		if err != nil {
			return err
		}
		if relations[name] = pub; i == 0 {
			bound = b
		}
	}
	pub := relations[names[0]]
	if *rel == "" {
		*rel = names[0]
	}
	spec := &query.Spec{Rel: *rel, Lo: *lo, Hi: *hi}
	for _, a := range splitList(*attrsFlag) {
		slot, err := strconv.Atoi(a)
		if err != nil || slot < 0 {
			return fmt.Errorf("bad attribute slot %q", a)
		}
		spec.Attrs = append(spec.Attrs, slot)
	}
	if *joinRel != "" {
		spec.Join = &query.JoinSpec{Rel: *joinRel}
		switch strings.ToLower(strings.TrimSpace(*method)) {
		case "bf":
			spec.Join.Method = join.BF
		case "bv":
			spec.Join.Method = join.BV
		default:
			return fmt.Errorf("unknown join method %q (want bf or bv)", *method)
		}
	}

	addrs := splitList(*addr)
	// A one-element fleet behaves exactly like a plain Dial; with more,
	// the client fails over on faults and quarantines any replica whose
	// answers fail verification.
	cl, err := client.DialFleet(addrs, client.Config{
		Scheme:         bound,
		Pub:            pub,
		Relations:      relations,
		DialTimeout:    5 * time.Second,
		RequestTimeout: time.Duration(*reqSec) * time.Second,
		Retry:          client.RetryPolicy{MaxAttempts: *retries},
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	specs := make([]*query.Spec, *count)
	for i := range specs {
		specs[i] = spec
	}
	t0 := time.Now()
	comps, err := cl.QueryPlans(specs)
	if err != nil {
		return err
	}
	rtt := time.Since(t0)
	st := cl.Stats()
	if len(comps) > 0 { // the pipelined repeats are identical: report the first
		report(spec, comps[0], bound.SignatureSize())
	}
	fmt.Printf("authserve query: %d answers verified in %v (%d bytes in, %d summaries ingested; %d join keys matched, %d answered by Bloom negatives alone, %d (BF) + %d (BV) proven absent inside runs, %d attribute signatures)\n",
		st.Verified, rtt, st.BytesIn, st.Summaries, st.JoinMatches, st.JoinBFNegs, st.JoinBFFalls, st.JoinBounds, st.AttrSigsVerif)
	fmt.Printf("authserve query: %d signature claims verified by the scheme, %d already closed by this session (%d known by content, no digest computed; %d batches without curve arithmetic)\n",
		st.ClaimMisses, st.ClaimHits, st.ContentHits, st.BatchesWithoutEC)
	if len(addrs) > 1 {
		fmt.Printf("authserve query: fleet of %d, finished on %s (%d failovers, %d quarantined)\n",
			len(addrs), cl.CurrentAddr(), st.Failovers, st.Quarantines)
		for a, cause := range cl.Quarantined() {
			fmt.Printf("authserve query: QUARANTINED %s: %v\n", a, cause)
		}
	}
	return nil
}

// report prints one verified answer: the plan, and whichever sections
// its composite has.
func report(spec *query.Spec, comp *wire.Composite, sigSize int) {
	line := fmt.Sprintf("authserve query: σ[%d,%d](%s)", spec.Lo, spec.Hi, spec.Rel)
	proved := "chain"
	if comp.Proj != nil {
		line = fmt.Sprintf("%s π%v", line, spec.Attrs)
		proved += ", projection aggregate"
	}
	if comp.Join != nil {
		line = fmt.Sprintf("%s ⋈ %s (%v)", line, spec.Join.Rel, spec.Join.Method)
		proved += ", join coverage"
	}
	fmt.Printf("%s -> %d records, chain VO %d bytes", line, len(comp.Outer.Records), comp.Outer.VOSize(sigSize))
	if comp.Proj != nil {
		fmt.Printf(", %d projected rows", len(comp.Proj.Rows))
	}
	if comp.Join != nil {
		negs := 0
		for _, g := range comp.Join.Negatives {
			negs += len(g.Keys)
		}
		fmt.Printf(", join in %d runs + %d Bloom negatives under %d partitions", len(comp.Join.Runs), negs, len(comp.Join.Negatives))
	}
	fmt.Printf(" — VERIFIED (%s, freshness)\n", proved)
	b := comp.Bytes
	fmt.Printf("authserve query: bytes per section: outer chain %d, projection %d, join %d, tails %d (of %d)\n",
		b.Outer, b.Proj, b.Join, b.Tails, b.Outer+b.Proj+b.Join+b.Tails)
}
