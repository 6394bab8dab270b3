package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/workload"
)

// runConfig is one run of one workload.
type runConfig struct {
	w          *workloadDef
	n          int
	seed       int64
	window     time.Duration // measured window
	warm       time.Duration // caches fill, lazy set-up finishes
	recoveries int           // timed restarts at most (see restartBudget); the last one is verified
	trace      bool
	replay     int    // requests replayed through the layers in a traced run
	outDir     string // data directory parent and trace files
}

// restartBudget stops a traced run's repeated recoveries once they have
// taken this long in total: a one-second recovery is sampled three times
// because one sample of it is noisy, write_heavy's two-second replay of its
// log tail twice.
const restartBudget = 3 * time.Second

// result is what one run reports.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // traced runs only
	raw               map[string]float64 // the wall clock's own reading of each timed end-to-end figure
	rawRates          []float64          // answers/s per sub-window, as the wall clock saw them
	speed             map[string]float64 // machine speed per phase (window, its halves, set-up)
	notes             []string           // sample counts and the like, for the report
	selfTimes         []layerTime
}

func (r *result) correct() bool { return r.failed == 0 }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload sets the stack up, drives the measured window, restarts
// from the durable state and verifies it. An error means the harness
// itself could not run; failed operations are counted in the result.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{e2e: map[string]float64{}}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d", cfg.w.Name, os.Getpid()))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probe := startProbe()
	defer probe.close()

	// Set-up, once: a fresh process boots the stack the way a user of the
	// daemon does. Generating the inputs is not part of it.
	inputs := genInputs(cfg.w, cfg.n, cfg.seed)
	keys := workload.Keys(inputs[0])
	bootStart := time.Now()
	s, err := boot(cfg.w, cfg.seed, dir, inputs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	setup := phase{bootStart, time.Now()}

	cat := newCatalog(cfg.w, cfg.n, cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	bufFor := func() *spanBuf {
		if tr == nil {
			return nil
		}
		return tr.buf()
	}

	clients := make([]*client.Client, readers)
	schemes := make([]sigagg.Scheme, readers)
	for i := range clients {
		var err error
		if clients[i], schemes[i], err = dial(s); err != nil {
			return nil, fmt.Errorf("dial reader %d: %w", i, err)
		}
		defer clients[i].Close()
	}

	// One schedule for everyone: warm-up, then the measured window; a
	// traced run records spans in the window's second half only, so its
	// first half is the untraced rate the overhead is taken against.
	t0 := time.Now()
	win := window{start: t0.Add(cfg.warm)}
	win.end = win.start.Add(cfg.window)
	if cfg.trace {
		win.traceFrom = win.start.Add(cfg.window / 2)
	}
	rstats := make([]*readerStats, readers)
	var wstats *writerStats
	var wg sync.WaitGroup
	for i := range clients {
		gen := newRequestGen(cfg.w, keys, cat, cfg.seed+1000*int64(i+1))
		buf := bufFor()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rstats[i] = runReader(clients[i], schemes[i], gen, win, buf)
		}(i)
	}
	wr := newWriter(s, cfg.n, keys, cat, cfg.seed+999, bufFor())
	wg.Add(1)
	go func() {
		defer wg.Done()
		wstats = wr.run(t0, win)
	}()
	var snapA, snapB *layerSnap
	if cfg.trace {
		time.Sleep(time.Until(win.start))
		snapA = takeSnap(s)
		time.Sleep(time.Until(win.end))
		snapB = takeSnap(s)
	}
	wg.Wait()
	durable := s.durableLSNs() // before anything else forces a flush
	answers, err := windowMetrics(res, cfg, win, rstats, wstats)
	if err != nil {
		return nil, err
	}

	var rt *replayTimes
	if cfg.trace {
		res.layer = map[string]float64{}
		for _, r := range s.rels {
			if err := r.store.Sync(); err != nil {
				return nil, err
			}
		}
		res.layer["wal.bytes_per_update"] = ratio(float64(s.logBytes()), float64(len(wstats.log)))
		gen := newRequestGen(cfg.w, keys, cat, cfg.seed+1000)
		if rt, err = replay(s, gen, cfg.replay, tr.buf()); err != nil {
			return nil, err
		}
	}

	for _, cl := range clients {
		cl.Close()
	}
	s.close()

	// Restart: recover fresh owner/server pairs from what the stopped
	// stack left on disk, several times; then serve the last recovery and
	// read every durable write back through a fresh verifying session.
	var restarts []phase
	var rs *stack
	replayed := 0
	var spent time.Duration
	for i := 0; i < cfg.recoveries && (i == 0 || spent < restartBudget); i++ {
		if rs != nil {
			rs.close()
		}
		runtime.GC()
		var took time.Duration
		if rs, took, replayed, err = recoverStack(cfg.w, cfg.seed, dir); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		now := time.Now()
		restarts = append(restarts, phase{now.Add(-took), now})
		spent += took
	}
	defer rs.close()
	att, failed, err := checkDurable(rs, wstats.log, durable)
	if err != nil {
		return nil, fmt.Errorf("durability check: %w", err)
	}
	res.attempted += att
	res.failed += failed
	res.note("durability: %d writes at or below the durable LSNs %v read back verified, %d missing; %d log messages replayed",
		att-failed, durable, failed, replayed)

	if err := atHostSpeed(res, probe, setup, win, restarts); err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mb"] = peakRSSMiB()
	if cfg.trace {
		layerMetrics(res, s, rstats, wstats, rt, snapA, snapB, answers)
		res.layer["wal.replayed_msgs"] = float64(replayed)
		spans := tr.all()
		res.selfTimes = selfTimes(spans)
		path := filepath.Join(cfg.outDir, "trace-"+cfg.w.Name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		res.note("trace: %d spans written to %s", len(spans), path)
	}
	return res, nil
}

// windowMetrics turns the readers' and the writer's samples into the
// window's figures as the wall clock saw them: the counts go straight into
// the end-to-end metrics, the timings into res.raw for atHostSpeed. The
// writer's due-time latency is reported per-layer only: it is mostly the
// wait for a processor behind the readers' verification, and ten runs of
// the same code spread 15 % on it.
func windowMetrics(res *result, cfg runConfig, win window, rstats []*readerStats, ws *writerStats) (answers int, err error) {
	var ends []time.Duration
	var weights []int
	var lat []float64
	var bytesIn uint64
	for i, st := range rstats {
		res.attempted += st.attempted
		res.failed += st.failed
		if st.err != nil {
			res.note("reader %d stopped: %v", i, st.err)
		}
		ends = append(ends, st.ends...)
		weights = append(weights, st.weight...)
		for j, d := range st.lat {
			lat = append(lat, usOf(d))
			answers += st.weight[j]
		}
		bytesIn += st.after.BytesIn - st.before.BytesIn
	}
	res.attempted += ws.attempted
	res.failed += ws.failed
	if ws.err != nil {
		res.note("writer stopped: %v", ws.err)
	}
	if answers == 0 || len(ws.ends) < 2 {
		return 0, fmt.Errorf("no work completed in the window (%d answers, %d updates)", answers, len(ws.ends))
	}
	sort.Float64s(lat)
	res.rawRates = subWindowRates(ends, weights, cfg.window, subWindows)
	pct, tail := tailPercentile(lat)
	res.raw = map[string]float64{
		"answers_per_s": median(res.rawRates), "answer_p50_us": percentile(lat, 50), "answer_tail_us": tail,
	}
	res.e2e["wire_bytes_per_answer"] = float64(bytesIn) / float64(answers)
	// Completion rate between the first and last in-window update: equals
	// the paced rate while the writer keeps up, drops when it cannot.
	span := ws.ends[len(ws.ends)-1] - ws.ends[0]
	res.e2e["updates_per_s"] = float64(len(ws.ends)-1) / span.Seconds()

	res.note("answers: %d verified in %d requests; sub-window rates %.0f; tail p%d (>= %d samples beyond) %.1f us",
		answers, len(lat), res.rawRates, pct, minBeyond, tail)
	res.note("updates: %d applied, %d periods closed; due-time latency p50 %.0f us, p95 %.0f us; generator lateness p99 %.3f ms",
		len(ws.ends), ws.periods, p50us(ws.lat), pctUS(ws.lat, 95), pctUS(ws.late, 99)/1e3)
	return answers, nil
}

// phase is one timed stretch of the run.
type phase struct{ from, to time.Time }

func (ph phase) seconds() float64 { return ph.to.Sub(ph.from).Seconds() }

// atHostSpeed reports the timings of the phases that keep both cores busy
// — set-up and the window — at the host's undisturbed speed (see
// speedProbe): a duration is multiplied by the machine's speed during its
// phase, a rate divided by it. One speed per phase, not one per
// sub-window: over a few seconds the probe's reading scatters more than
// the system's own rate does. The wall clock's own readings stay in
// res.raw and on a note line.
//
// The restart time stays the wall clock's reading and is a per-layer
// metric (wal.restart_s): a recovery runs on one core while the probe sits
// on the idle other one, so the probe says nothing about it, and ten
// recoveries of the same log spread up to 24 % as they are — more than any
// bound an end-to-end metric may carry.
func atHostSpeed(res *result, probe *speedProbe, setup phase, win window, restarts []phase) error {
	speed := probe.speeds()
	res.speed = map[string]float64{}
	mid := win.start.Add(win.end.Sub(win.start) / 2)
	for name, ph := range map[string]phase{
		"setup": setup, "window": {win.start, win.end}, "first_half": {win.start, mid}, "second_half": {mid, win.end},
	} {
		v, err := speed(ph.from, ph.to)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.speed[name] = v
	}
	w := res.speed["window"]
	res.raw["setup_s"] = setup.seconds()
	res.e2e["setup_s"] = setup.seconds() * res.speed["setup"]
	res.e2e["answers_per_s"] = res.raw["answers_per_s"] / w
	res.e2e["answer_p50_us"] = res.raw["answer_p50_us"] * w
	recoveries := make([]float64, len(restarts))
	for i, ph := range restarts {
		recoveries[i] = ph.seconds()
	}
	res.raw["restart_s"] = median(recoveries)
	res.note("machine speed, 1 = the host undisturbed: set-up %.3f, window %.3f", res.speed["setup"], w)
	res.note("as the wall clock saw them: setup_s %.3f, answers_per_s %.1f, answer_p50_us %.1f; restart is the median of %d recoveries %.3f s",
		setup.seconds(), res.raw["answers_per_s"], res.raw["answer_p50_us"], len(recoveries), recoveries)
	return nil
}

// checkDurable serves the recovered stack on loopback and, through a
// fresh verifying session, reads back every write whose LSN was at or
// below its relation's durable LSN when the load stopped: the newest such
// version of each key (or a later one — the page cache outlives the
// process, so the unflushed tail usually survives too) must be there.
func checkDurable(rs *stack, log []logged, durable []uint64) (attempted, failed int, err error) {
	if err := rs.listen(); err != nil {
		return 0, 0, err
	}
	cl, _, err := dial(rs)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	want := map[int64]int64{} // key → certification time of its newest durable write
	for _, l := range log {
		if l.lsn <= durable[l.rel] && l.ts > want[l.key] {
			want[l.key] = l.ts
		}
	}
	keys := make([]int64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	attempted = len(keys)
	present := func(recs []*core.Record, key int64) bool {
		for _, r := range recs {
			if r.Key == key && r.TS >= want[key] {
				return true
			}
		}
		return false
	}
	if rs.w.Plan {
		for _, k := range keys {
			comp, err := cl.QueryPlan(&query.Spec{Rel: "i", Lo: k, Hi: k})
			if err != nil {
				return attempted, failed, err
			}
			if !present(comp.Outer.Records, k) {
				failed++
			}
		}
		return attempted, failed, nil
	}
	const batch = 64
	for at := 0; at < len(keys); at += batch {
		chunk := keys[at:min(at+batch, len(keys))]
		ranges := make([]core.Range, len(chunk))
		for i, k := range chunk {
			ranges[i] = core.Range{Lo: k, Hi: k}
		}
		answers, _, err := cl.QueryBatch(ranges)
		if err != nil {
			return attempted, failed, err
		}
		for i, k := range chunk {
			if !present(answers[i].Chain.Records, k) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// layerMetrics fills every per-layer metric of a traced run.
func layerMetrics(res *result, s *stack, rstats []*readerStats, ws *writerStats,
	rt *replayTimes, a, b *layerSnap, answers int) {
	m := res.layer
	ops := float64(answers + len(ws.ends))

	m["btree.range_us_p50"] = p50us(rt.btRange)
	m["aggtree.aggrange_us_p50"] = p50us(rt.aggRange)
	m["aggtree.ops_per_range"] = mean(rt.aggOps)
	m["aggtree.upsert_us_p50"] = p50us(rt.upsert)

	m["core.query_us_p50"] = p50us(rt.query)
	m["core.query_us_p99"] = pctUS(rt.query, 99)
	m["core.agg_ops_per_answer"] = mean(rt.queryOps)
	m["core.apply_us_p50"] = p50us(ws.coreApply)

	ca, cb := a.serving.Answers, b.serving.Answers
	lookups := float64(cb.Hits-ca.Hits) + float64(cb.Built-ca.Built) + float64(cb.Coalesced-ca.Coalesced)
	m["anscache.hit_ratio"] = ratio(float64(cb.Hits-ca.Hits), lookups)
	m["anscache.serve_hit_us_p50"] = p50us(rt.serveHit)
	m["anscache.serve_build_us_p50"] = p50us(rt.serveBuild)
	m["anscache.invalidations_per_update"] = ratio(float64(cb.Invalidations-ca.Invalidations), float64(len(ws.ends)))
	m["anscache.coalesced"] = float64(cb.Coalesced - ca.Coalesced)
	m["anscache.evictions"] = float64(cb.Evictions - ca.Evictions)
	m["anscache.resident_mb"] = float64(cb.Bytes) / (1 << 20)

	m["wire.encode_us_p50"] = p50us(rt.encode)
	m["wire.decode_us_p50"] = p50us(rt.decode)
	m["wire.bytes_per_row"] = ratio(float64(rt.wireBytes), float64(rt.rows))
	m["wire.composite_decode_us_p50"] = p50us(rt.compositeDecode)

	var fetch, verify, plan []time.Duration
	var vs sigagg.VerifyStats
	var summaries, retries uint64
	stale := 0
	for _, st := range rstats {
		fetch = append(fetch, st.fetch...)
		verify = append(verify, st.verifyT...)
		plan = append(plan, st.plan...)
		summaries += st.after.Summaries - st.before.Summaries
		retries += st.after.Retries - st.before.Retries
		vs = addVerifyDelta(vs, st.verify, st.verifyBefore)
		stale += st.stale
	}
	m["server.fetch_rtt_us_p50"] = p50us(fetch)
	m["server.bytes_out_per_answer"] = ratio(float64(b.net.BytesOut-a.net.BytesOut), float64(answers))
	m["server.shed"] = float64(b.net.Shed - a.net.Shed)
	m["server.errors"] = float64(b.net.Errors - a.net.Errors)

	m["client.verify_us_p50"] = p50us(verify)
	m["client.summaries_per_answer"] = ratio(float64(summaries), float64(answers))
	m["client.retries"] = float64(retries)
	m["client.stale_requeries"] = float64(stale)
	m["client.queryplan_us_p50"] = p50us(plan)
	m["client.answer_p99_us"] = res.raw["answer_tail_us"]

	m["sigagg.h2c_hit_ratio"] = ratio(float64(vs.H2CCacheHits), float64(vs.H2CCacheHits+vs.H2CCacheMisses))
	m["sigagg.agg_decode_hit_ratio"] = ratio(float64(vs.AggCacheHits), float64(vs.AggCacheHits+vs.AggCacheMisses))
	m["sigagg.fast_verifies"] = float64(vs.FastVerifies)
	m["sigagg.portable_verifies"] = float64(vs.PortableVerifies)
	m["sigagg.sign_us_p50"] = p50us(rt.sign)

	m["freshness.ingest_us_p50"] = p50us(rt.ingest)
	m["freshness.summaries_published"] = float64(ws.periods * len(s.rels))

	m["da.load_s"] = s.loadTime.Seconds()
	m["da.update_us_p50"] = p50us(ws.daUpdate)
	m["da.closeperiod_us_p50"] = p50us(ws.closePeriod)
	m["da.update_e2e_us_p50"] = p50us(ws.lat)
	m["da.update_e2e_us_p95"] = pctUS(ws.lat, 95)
	m["da.writer_late_ms_p99"] = pctUS(ws.late, 99) / 1e3

	m["wal.append_us_p50"] = p50us(ws.walAppend)
	m["wal.sync_us_p50"] = p50us(ws.walSync)
	m["wal.snapshot_write_s"] = s.snapTime.Seconds()
	m["wal.snapshot_mb"] = float64(s.snapBytes) / (1 << 20)
	m["wal.restart_s"] = res.raw["restart_s"]

	m["query.plan_us_p50"] = p50us(rt.plan)
	m["query.execute_us_p50"] = p50us(rt.execute)
	m["query.serveplan_us_p50"] = p50us(rt.servePlan)
	ea, eb := a.eng, b.eng
	qLookups := float64(eb.Cache.Hits-ea.Cache.Hits) + float64(eb.Cache.Built-ea.Cache.Built) + float64(eb.Cache.Coalesced-ea.Cache.Coalesced)
	m["query.cache_hit_ratio"] = ratio(float64(eb.Cache.Hits-ea.Cache.Hits), qLookups)
	m["query.join_probes_per_plan"] = ratio(float64(eb.JoinProbes-ea.JoinProbes), float64(eb.PlanQueries-ea.PlanQueries))
	m["query.bf_fallback_ratio"] = ratio(float64(eb.BFFallbacks-ea.BFFallbacks), float64(eb.BFProbes-ea.BFProbes))

	m["proc.allocs_per_answer"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(answers))
	m["proc.alloc_bytes_per_answer"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), float64(answers))
	m["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["proc.cpu_us_per_op"] = ratio(usOf(b.cpu-a.cpu), ops)

	// Untraced first half against traced second half of the same window,
	// each at the host's undisturbed speed.
	var fetchSelf, verifySelf, reqTotal time.Duration
	for _, st := range rstats {
		for _, d := range st.fetch {
			fetchSelf += d
		}
		for _, d := range st.verifyT {
			verifySelf += d
		}
		for _, d := range st.plan {
			reqTotal += d
		}
	}
	reqTotal += fetchSelf + verifySelf
	plain := mean(res.rawRates[:subWindows/2]) / res.speed["first_half"]
	traced := mean(res.rawRates[subWindows/2:]) / res.speed["second_half"]
	m["trace.fetch_self_share"] = ratio(float64(fetchSelf), float64(reqTotal))
	m["trace.verify_self_share"] = ratio(float64(verifySelf), float64(reqTotal))
	m["trace.overhead"] = 1 - ratio(traced, plain)

	m["proc.machine_speed"] = res.speed["window"]
	m["proc.raw_answers_per_s"] = res.raw["answers_per_s"]
	m["proc.raw_answer_p50_us"] = res.raw["answer_p50_us"]
	m["proc.raw_setup_s"] = res.raw["setup_s"]
}
