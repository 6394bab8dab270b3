// Package server is the serving layer's front end: it pairs the
// QueryServer's answer cache with the wire codec (internal/wire imports
// core for the message types, so core cannot call it directly) and
// carries the closed-loop, multi-client benchmark driver behind
// `authbench serve`.
package server

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"authdb/internal/anscache"
	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// Codec returns the production AnswerCodec: answers encode once into a
// pooled wire buffer that the cache recycles when the last reader
// releases the entry. On an encoding error the pooled buffer is
// returned immediately — Encode owns the buffer until it succeeds, so
// no error path can leak it or double-put it (callers Free exactly the
// successful results).
//
// The codec encodes the ANSWER CORE only (wire.AppendAnswerCore): the
// bytes depend on nothing but the answered records, so cached entries
// survive ρ-period closes. The network front end appends each client's
// summary delta (wire.AppendSummaryTail) when it writes the response
// frame; core bytes plus tail bytes form exactly the 'A' message
// clients decode.
func Codec() core.AnswerCodec {
	return core.AnswerCodec{
		Encode: func(a *core.Answer) ([]byte, error) {
			buf := wire.GetBuffer()
			out, err := wire.AppendAnswerCore(buf, a)
			if err != nil {
				wire.PutBuffer(buf)
				return nil, err
			}
			return out, nil
		},
		Free: wire.PutBuffer,
	}
}

// EnableCache attaches a wire-codec answer cache of maxBytes to qs.
func EnableCache(qs *core.QueryServer, maxBytes int64) error {
	return qs.EnableAnswerCache(Codec(), anscache.WithMaxBytes(maxBytes))
}

// Config sizes one benchmark run.
type Config struct {
	Scheme      sigagg.Scheme // raw (unbound) scheme
	N           int           // relation size
	Ranges      int           // hot-range catalog size
	SF          float64       // selectivity factor (result cardinality ≈ SF·N)
	Theta       float64       // zipf exponent (>1; 1.07 default)
	Clients     []int         // closed-loop client counts to sweep
	Duration    time.Duration // timed window per mode per client count
	UpdateEvery time.Duration // writer cadence for the mixed workload (0 = read-only)
	CacheBytes  int64         // answer-cache budget
	VerifyEvery int           // sample every k-th served answer for post-run verification
	Shards      int           // QueryServer key-range shards (epoch granularity)
	Seed        int64

	// WALDir, when non-empty, gives the relation's runtime a durable
	// store in that directory (group-committed per WALCommit, default
	// 2ms), so the benchmark reports serving throughput under the same
	// durability regime authserve -data runs with.
	WALDir    string
	WALCommit time.Duration
}

// DefaultConfig returns a run that finishes in seconds on one core.
func DefaultConfig(scheme sigagg.Scheme) Config {
	maxC := runtime.GOMAXPROCS(0)
	clients := []int{1}
	for c := 2; c <= maxC; c *= 2 {
		clients = append(clients, c)
	}
	if maxC == 1 {
		// One extra oversubscribed point so request coalescing is
		// exercised even on a single-core host.
		clients = append(clients, 2)
	}
	return Config{
		Scheme:      scheme,
		N:           100_000,
		Ranges:      512,
		SF:          0.0005, // ≈ 50-record answers at N=100k
		Theta:       1.07,
		Clients:     clients,
		Duration:    1500 * time.Millisecond,
		UpdateEvery: 2 * time.Millisecond,
		CacheBytes:  64 << 20,
		VerifyEvery: 256,
		// Epoch (= invalidation) granularity is the key-range shard, so
		// a serving deployment wants many more shards than cores: with
		// S shards and R cached ranges one update invalidates ~R/S
		// entries, and at the default 8 the rebuild demand under a
		// fast update stream can exceed what one core rebuilds.
		Shards: 64,
		Seed:   1,
	}
}

// Latency summarizes one latency population in nanoseconds.
type Latency struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Point is one (client count, mode) measurement.
type Point struct {
	Clients int  `json:"clients"`
	Cached  bool `json:"cached"`

	QPS     float64 `json:"qps"`
	Total   Latency `json:"latency"`
	Cold    Latency `json:"cold"`      // uncached or cache-miss builds
	Hit     Latency `json:"hit"`       // served from a resident entry
	Coal    Latency `json:"coalesced"` // shared another call's build
	Updates int64   `json:"updates"`

	CacheHits     uint64 `json:"cache_hits"`
	CacheBuilt    uint64 `json:"cache_built"`
	CacheCoal     uint64 `json:"cache_coalesced"`
	Invalidations uint64 `json:"cache_invalidations"`
	Evictions     uint64 `json:"cache_evictions"`
	Rejected      uint64 `json:"cache_rejected"`
	Retries       uint64 `json:"cache_retries"`
	CacheBytes    int64  `json:"cache_bytes"`
	CacheEntries  int64  `json:"cache_entries"`

	Verified int `json:"answers_verified"`
}

// Report is the BENCH_serve.json document.
type Report struct {
	Scheme     string  `json:"scheme"`
	N          int     `json:"n"`
	Ranges     int     `json:"ranges"`
	SF         float64 `json:"sf"`
	Theta      float64 `json:"theta"`
	Workers    int     `json:"workers"`
	DurationMS int64   `json:"duration_ms_per_point"`
	WAL        bool    `json:"wal,omitempty"` // writer stream was write-ahead logged

	Points []Point `json:"points"`

	// Headline: cached vs cold QPS at the largest client count.
	ColdQPS   float64 `json:"cold_qps"`
	CachedQPS float64 `json:"cached_qps"`
	Speedup   float64 `json:"speedup"`

	// CorrectnessChecked means the post-run sweep verified every
	// catalog range cold, cached, and again immediately after an
	// invalidating update.
	CorrectnessChecked bool `json:"correctness_checked"`
}

// opRecord is one timed request.
type opRecord struct {
	ns  int64
	src core.ServeSource
}

// sample is one answer retained for post-run verification.
type sample struct {
	ans *core.Answer
	rng core.Range
}

// bench owns the system under test for one Run.
type bench struct {
	cfg      Config
	sys      *core.System
	rt       *wal.Runtime // carries the writer's stream to sys.QS (durable with cfg.WALDir)
	keys     []int64
	catalog  []workload.RangeQuery
	codec    core.AnswerCodec
	updateTS int64
}

// Run executes the full sweep and returns the report. Progress lines go
// to stdout (authbench convention).
func Run(cfg Config) (*Report, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("server: nil scheme")
	}
	if len(cfg.Clients) == 0 || cfg.N < 16 || cfg.Ranges < 1 {
		return nil, fmt.Errorf("server: bad config %+v", cfg)
	}
	b := &bench{cfg: cfg, codec: Codec(), updateTS: 2}

	var qsOpts []core.Option
	if cfg.Shards > 0 {
		qsOpts = append(qsOpts, core.WithShards(cfg.Shards))
	}
	sys, err := core.NewSystem(cfg.Scheme, core.DefaultConfig(), qsOpts...)
	if err != nil {
		return nil, err
	}
	b.sys = sys
	fmt.Printf("serve: loading %d records under %s...\n", cfg.N, sys.Scheme.Name())
	recs := workload.Records(workload.Config{N: cfg.N, RecLen: 512, Seed: cfg.Seed})
	b.keys = workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		return nil, err
	}
	var store *wal.Store
	if cfg.WALDir != "" {
		commit := cfg.WALCommit
		if commit <= 0 {
			commit = 2 * time.Millisecond
		}
		if store, err = wal.Open(cfg.WALDir, wal.Options{GroupCommit: commit}); err != nil {
			return nil, fmt.Errorf("server: wal: %w", err)
		}
	}
	b.rt = wal.NewRuntime(sys.DA, sys.QS, store, 0)
	defer b.rt.Close()
	if err := b.rt.Load(msg); err != nil {
		return nil, err
	}
	b.catalog = workload.NewHotRangeCatalog(b.keys, cfg.Ranges, cfg.SF, cfg.Seed+101)

	rep := &Report{
		WAL:        store != nil,
		Scheme:     sys.Scheme.Name(),
		N:          cfg.N,
		Ranges:     cfg.Ranges,
		SF:         cfg.SF,
		Theta:      cfg.Theta,
		Workers:    runtime.GOMAXPROCS(0),
		DurationMS: cfg.Duration.Milliseconds(),
	}
	for _, clients := range cfg.Clients {
		for _, cached := range []bool{false, true} {
			pt, err := b.runPoint(clients, cached)
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, *pt)
			mode := "cold  "
			if cached {
				mode = "cached"
			}
			fmt.Printf("serve: %s clients=%d qps=%9.0f p50=%7dns p99=%8dns hit=%d built=%d coal=%d inval=%d\n",
				mode, clients, pt.QPS, pt.Total.P50Ns, pt.Total.P99Ns,
				pt.CacheHits, pt.CacheBuilt, pt.CacheCoal, pt.Invalidations)
		}
	}
	for _, pt := range rep.Points {
		if pt.Clients != cfg.Clients[len(cfg.Clients)-1] {
			continue
		}
		if pt.Cached {
			rep.CachedQPS = pt.QPS
		} else {
			rep.ColdQPS = pt.QPS
		}
	}
	if rep.ColdQPS > 0 {
		rep.Speedup = rep.CachedQPS / rep.ColdQPS
	}
	if err := b.checkCorrectness(); err != nil {
		return nil, err
	}
	rep.CorrectnessChecked = true
	fmt.Printf("serve: cached %0.f qps vs cold %0.f qps: %.1fx; correctness sweep passed\n",
		rep.CachedQPS, rep.ColdQPS, rep.Speedup)
	return rep, nil
}

// runPoint measures one (clients, cached) cell: closed-loop clients
// drawing zipfian ranges while a single writer applies updates at the
// configured cadence.
func (b *bench) runPoint(clients int, cached bool) (*Point, error) {
	qs := b.sys.QS
	if cached {
		if err := qs.EnableAnswerCache(b.codec, anscache.WithMaxBytes(b.cfg.CacheBytes)); err != nil {
			return nil, err
		}
	} else {
		qs.DisableAnswerCache()
	}
	defer qs.DisableAnswerCache()

	deadline := time.Now().Add(b.cfg.Duration)

	// Writer: single goroutine (the DA is single-writer) updating keys
	// drawn from the catalog's hot head, so invalidations land on the
	// very ranges the cache is serving.
	stopWriter := startHotWriter(b.rt, b.catalog, b.cfg.Theta, b.cfg.Seed+999,
		b.cfg.UpdateEvery, 0, &b.updateTS)

	ops := make([][]opRecord, clients)
	samples := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewHotRangeGen(b.catalog, b.cfg.Theta, b.cfg.Seed+1000*int64(c+1))
			recs := make([]opRecord, 0, 1<<17)
			var taken []sample
			n := 0
			for time.Now().Before(deadline) {
				q := gen.Next()
				t0 := time.Now()
				sv, err := qs.Serve(q.Lo, q.Hi)
				if err != nil {
					errs[c] = err
					return
				}
				if sv.Data == nil {
					// Cold baseline: the server still pays for wire
					// encoding, into a pooled buffer, per request.
					buf, err := b.codec.Encode(sv.Answer)
					if err != nil {
						errs[c] = err
						return
					}
					b.codec.Free(buf)
				}
				ns := time.Since(t0).Nanoseconds()
				if b.cfg.VerifyEvery > 0 && n%b.cfg.VerifyEvery == 0 {
					taken = append(taken, sample{ans: sv.Answer, rng: core.Range{Lo: q.Lo, Hi: q.Hi}})
				}
				sv.Release()
				recs = append(recs, opRecord{ns: ns, src: sv.Source})
				n++
			}
			ops[c] = recs
			samples[c] = taken
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	updates, _, writerErr := stopWriter()
	if writerErr != nil {
		return nil, writerErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	pt := &Point{Clients: clients, Cached: cached, Updates: updates}
	var all, cold, hit, coal []int64
	for _, recs := range ops {
		for _, r := range recs {
			all = append(all, r.ns)
			switch r.src {
			case core.ServedHit:
				hit = append(hit, r.ns)
			case core.ServedCoalesced:
				coal = append(coal, r.ns)
			default:
				cold = append(cold, r.ns)
			}
		}
	}
	pt.QPS = float64(len(all)) / elapsed.Seconds()
	pt.Total = summarize(all)
	pt.Cold = summarize(cold)
	pt.Hit = summarize(hit)
	pt.Coal = summarize(coal)
	st := qs.ServingStats().Answers
	pt.CacheHits, pt.CacheBuilt, pt.CacheCoal = st.Hits, st.Built, st.Coalesced
	pt.Invalidations, pt.Evictions, pt.Rejected, pt.Retries = st.Invalidations, st.Evictions, st.Rejected, st.Retries
	pt.CacheBytes, pt.CacheEntries = st.Bytes, st.Entries

	// Verify the sampled answers (outside the timed window: this is
	// user-side work and must not throttle the closed loop).
	var answers []*core.Answer
	var ranges []core.Range
	for _, taken := range samples {
		for _, s := range taken {
			answers = append(answers, s.ans)
			ranges = append(ranges, s.rng)
		}
	}
	if len(answers) > 0 {
		v := core.NewVerifier(b.sys.Scheme, b.sys.Pub, core.DefaultConfig())
		if _, err := v.VerifyAnswers(answers, ranges, 1_000_000); err != nil {
			return nil, fmt.Errorf("server: sampled answer failed verification (clients=%d cached=%v): %w",
				clients, cached, err)
		}
	}
	pt.Verified = len(answers)
	return pt, nil
}

// checkCorrectness sweeps every catalog range three ways — cold, from
// the warmed cache, and again immediately after an invalidating update
// — verifying every served answer and checking that post-update serves
// carry the fresh record.
func (b *bench) checkCorrectness() error {
	qs := b.sys.QS
	if err := qs.EnableAnswerCache(b.codec, anscache.WithMaxBytes(b.cfg.CacheBytes)); err != nil {
		return err
	}
	defer qs.DisableAnswerCache()
	v := core.NewVerifier(b.sys.Scheme, b.sys.Pub, core.DefaultConfig())
	verifyServe := func(q workload.RangeQuery, phase string) (*core.Answer, error) {
		sv, err := qs.Serve(q.Lo, q.Hi)
		if err != nil {
			return nil, fmt.Errorf("server: %s serve [%d,%d]: %w", phase, q.Lo, q.Hi, err)
		}
		// Verify what a client would actually consume: the cached core
		// bytes plus the summary tail the network front end appends per
		// response (sinceSeq=0 = the full tail a cold client gets).
		full := append(wire.GetBuffer(), sv.Data...)
		full = wire.AppendSummaryTail(full, qs.SummariesTail(0, sv.Answer.OldestSigTS))
		dec, err := wire.DecodeAnswer(full)
		wire.PutBuffer(full)
		sv.Release()
		if err != nil {
			return nil, fmt.Errorf("server: %s decode [%d,%d]: %w", phase, q.Lo, q.Hi, err)
		}
		if _, err := v.VerifyAnswer(dec, q.Lo, q.Hi, 1_000_000); err != nil {
			return nil, fmt.Errorf("server: %s answer [%d,%d] failed verification: %w", phase, q.Lo, q.Hi, err)
		}
		return dec, nil
	}
	for _, phase := range []string{"cold", "cached"} {
		for _, q := range b.catalog {
			if _, err := verifyServe(q, phase); err != nil {
				return err
			}
		}
	}
	// Invalidating updates: bump a record inside each of the hottest
	// ranges and require the very next serve to carry it.
	for i := 0; i < 8 && i < len(b.catalog); i++ {
		q := b.catalog[i]
		b.updateTS++
		want := b.updateTS
		msg, err := b.sys.DA.Update(q.Lo, [][]byte{[]byte(fmt.Sprintf("inval-%d", want))}, want)
		if err != nil {
			return err
		}
		if err := b.rt.Deliver(msg); err != nil {
			return err
		}
		dec, err := verifyServe(q, "post-update")
		if err != nil {
			return err
		}
		fresh := false
		for _, r := range dec.Chain.Records {
			if r.Key == q.Lo && r.TS == want {
				fresh = true
			}
		}
		if !fresh {
			return fmt.Errorf("server: stale answer for [%d,%d] after update ts=%d", q.Lo, q.Hi, want)
		}
	}
	return nil
}

// summarize sorts and extracts the percentiles.
func summarize(ns []int64) Latency {
	if len(ns) == 0 {
		return Latency{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return Latency{
		Count: int64(len(ns)),
		P50Ns: ns[len(ns)/2],
		P99Ns: ns[(len(ns)*99)/100],
	}
}
