package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// staleRequeries bounds the protocol's own reaction to freshness.ErrStale
// (a certified summary proved an answered record has a newer version, so
// the user re-queries). The re-query time is part of the answer's latency;
// running out of re-queries is a failed operation.
const staleRequeries = 3

// window is the timing plan every goroutine of a run shares.
type window struct {
	start, end time.Time // measured window
	traceFrom  time.Time // spans are recorded from here on (zero = never)
}

// traced reports whether an operation starting at now records spans.
func (w window) traced(now time.Time) bool {
	return !w.traceFrom.IsZero() && !now.Before(w.traceFrom)
}

// request is one reader operation: a pipelined batch of ranges, or one
// select-project-join plan.
type request struct {
	ranges []core.Range
	spec   *query.Spec
}

func (r request) answers() int {
	if r.spec != nil {
		return 1
	}
	return len(r.ranges)
}

// catalog is what the readers must share for their requests to coincide:
// the hot ranges (by the index of their first key) or the plan specs.
// Every catalog range selects exactly w.Rows rows, so how much work an
// answer is does not depend on which ranges a seed happens to make the
// hottest.
type catalog struct {
	starts []int
	specs  []*query.Spec
}

func newCatalog(w *workloadDef, n int, seed int64) catalog {
	rng := rand.New(rand.NewSource(seed + 101))
	var cat catalog
	for i := 0; i < w.Ranges; i++ {
		if !w.Plan {
			cat.starts = append(cat.starts, rng.Intn(n-w.Rows+1))
			continue
		}
		loIdx := 1 + rng.Intn(n-w.Rows)
		s := &query.Spec{Rel: "o", Lo: int64(loIdx)*10 - 5, Hi: int64(loIdx+w.Rows)*10 + 5,
			Attrs: []int{0}, Join: &query.JoinSpec{Rel: "i", Method: join.BF}}
		if i%2 == 1 {
			s.Attrs = []int{0, 1}
		}
		cat.specs = append(cat.specs, s)
	}
	return cat
}

// requestGen is one reader's seeded request stream: zipf over the shared
// catalog, or — with no catalog — uniformly placed ranges of ½ to 1½ times
// w.Rows rows (the §5.1 shape), which effectively never repeat and whose
// sizes average out over a window's thousands of requests.
type requestGen struct {
	w    *workloadDef
	keys []int64
	cat  catalog
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newRequestGen(w *workloadDef, keys []int64, cat catalog, seed int64) *requestGen {
	g := &requestGen{w: w, keys: keys, cat: cat, rng: rand.New(rand.NewSource(seed))}
	if w.Ranges > 0 {
		g.zipf = rand.NewZipf(g.rng, zipfTheta, 1, uint64(w.Ranges-1))
	}
	return g
}

func (g *requestGen) next() request {
	if g.w.Plan {
		return request{spec: g.cat.specs[g.zipf.Uint64()]}
	}
	ranges := make([]core.Range, pipeline)
	for i := range ranges {
		start, rows := 0, g.w.Rows
		if g.zipf != nil {
			start = g.cat.starts[g.zipf.Uint64()]
		} else {
			rows = rows/2 + g.rng.Intn(rows+1)
			start = g.rng.Intn(len(g.keys) - rows + 1)
		}
		ranges[i] = core.Range{Lo: g.keys[start], Hi: g.keys[start+rows-1]}
	}
	return request{ranges: ranges}
}

// dial opens one verifying client session with its own scheme instance —
// a remote user shares no verification cache with the server — and does
// the log-in summary sync for single-relation sessions.
func dial(s *stack) (*client.Client, sigagg.Scheme, error) {
	raw := bas.New(0)
	bound, err := sigagg.Bind(raw, s.rels[0].pub)
	if err != nil {
		return nil, nil, err
	}
	cfg := client.Config{
		Scheme:         bound,
		Pub:            s.rels[0].pub,
		DialTimeout:    5 * time.Second,
		RequestTimeout: 30 * time.Second,
		Retry:          client.RetryPolicy{MaxAttempts: 3},
		VerifyWorkers:  1, // the two readers already occupy both cores
	}
	if s.w.Plan {
		cfg.Relations = make(map[string]sigagg.PublicKey, len(s.rels))
		for _, r := range s.rels {
			cfg.Relations[r.name] = r.pub
		}
	}
	cl, err := client.Dial(s.addr, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !s.w.Plan {
		if _, err := cl.SyncSummaries(0); err != nil {
			cl.Close()
			return nil, nil, fmt.Errorf("log-in summary sync: %w", err)
		}
	}
	return cl, raw, nil
}

// readerStats is one closed-loop reader's record of the measured window.
// One sample is one request (a batch of 8 answers, or one plan): every
// answer of a batch is in hand when its verified batch is.
type readerStats struct {
	attempted, failed int // answers
	ends              []time.Duration
	lat               []time.Duration
	weight            []int // answers per sample
	stale             int
	before, after     client.Stats
	verify            sigagg.VerifyStats // this reader's scheme, at the end
	verifyBefore      sigagg.VerifyStats

	// Traced split at the client's public boundaries.
	fetch, verifyT, plan []time.Duration
	err                  error
}

// runReader drives one client in a closed loop until the window ends.
func runReader(cl *client.Client, scheme sigagg.Scheme, gen *requestGen, win window, tr *spanBuf) *readerStats {
	st := &readerStats{}
	vstats := func() sigagg.VerifyStats {
		if p, ok := scheme.(sigagg.VerifyStatsProvider); ok {
			return p.VerifyStats()
		}
		return sigagg.VerifyStats{}
	}
	in := false
	for {
		now := time.Now()
		if !now.Before(win.end) {
			break
		}
		if !in && !now.Before(win.start) {
			in = true
			st.before = cl.Stats()
			st.verifyBefore = vstats()
		}
		req := gen.next()
		t0 := time.Now()
		stale, err := doRequest(cl, req, win.traced(now), tr, st)
		t1 := time.Now()
		if in {
			st.attempted += req.answers()
			st.stale += stale
			if err != nil {
				st.failed += req.answers()
			} else {
				st.ends = append(st.ends, t1.Sub(win.start))
				st.lat = append(st.lat, t1.Sub(t0))
				st.weight = append(st.weight, req.answers())
			}
		}
		if err != nil {
			// A verification failure, 'E' frame, shed or exhausted retry: the
			// session is not to be trusted further, so this reader stops.
			st.err = err
			break
		}
	}
	st.after = cl.Stats()
	st.verify = vstats()
	return st
}

// doRequest fetches and fully verifies one request, re-querying when the
// freshness check proves the answer stale. Untraced it is the client's
// one-call path; traced it is split at the same public boundaries
// (FetchBatch + Verify) so each side gets a span.
func doRequest(cl *client.Client, req request, traced bool, tr *spanBuf, st *readerStats) (stale int, err error) {
	var root spanRef
	if traced {
		root = tr.begin(spanRef{}, "request")
		defer func() { tr.end(root) }()
	}
	for attempt := 0; ; attempt++ {
		switch {
		case req.spec != nil:
			var sp spanRef
			if traced {
				sp = tr.begin(root, "client.queryplan")
			}
			_, err = cl.QueryPlan(req.spec)
			if traced {
				st.plan = append(st.plan, tr.end(sp))
			}
		case traced:
			sp := tr.begin(root, "client.fetch")
			answers, ferr := cl.FetchBatch(req.ranges)
			st.fetch = append(st.fetch, tr.end(sp))
			if err = ferr; err == nil {
				sp = tr.begin(root, "client.verify")
				_, err = cl.Verify(answers, req.ranges)
				st.verifyT = append(st.verifyT, tr.end(sp))
			}
		default:
			_, _, err = cl.QueryBatch(req.ranges)
		}
		if err == nil || !errors.Is(err, freshness.ErrStale) || attempt >= staleRequeries {
			return stale, err
		}
		stale++
	}
}

// logged is one write the log acknowledged, kept for the post-restart
// durability check.
type logged struct {
	rel int
	lsn uint64
	key int64
	ts  int64
}

// writerStats is the open-loop writer's record of the measured window.
type writerStats struct {
	attempted, failed int
	ends              []time.Duration // completion offsets of updates due in the window
	lat               []time.Duration // due → applied and WAL-appended
	late              []time.Duration // how far behind schedule the generator started each
	periods           int
	log               []logged // every acknowledged write of the whole run

	// Traced split at the public boundaries.
	daUpdate, walAppend, coreApply, closePeriod, walSync, certify []time.Duration
	err                                                           error
}

// writer is the single open-loop update stream.
type writer struct {
	s     *stack
	st    *writerStats
	tr    *spanBuf
	rng   *rand.Rand
	zipf  *rand.Zipf // hot workloads update rows of the hot ranges
	cat   catalog
	keys  []int64
	fresh []int64 // plan_join: outer keys not yet in the inner relation
	done  []int64 // plan_join: keys inserted so far
	ops   int64
}

func newWriter(s *stack, n int, keys []int64, cat catalog, seed int64, tr *spanBuf) *writer {
	wr := &writer{s: s, st: &writerStats{}, tr: tr, rng: rand.New(rand.NewSource(seed)), keys: keys, cat: cat}
	switch {
	case s.w.Plan:
		for i := 1; i <= n; i++ {
			if i%joinEvery != 0 {
				wr.fresh = append(wr.fresh, int64(i)*10)
			}
		}
		wr.rng.Shuffle(len(wr.fresh), func(i, j int) { wr.fresh[i], wr.fresh[j] = wr.fresh[j], wr.fresh[i] })
	case cat.starts != nil:
		wr.zipf = rand.NewZipf(rand.New(rand.NewSource(seed+1)), zipfTheta, 1, uint64(len(cat.starts)-1))
	}
	return wr
}

// step times one call into a layer, as a span when tracing.
func (wr *writer) step(traced bool, parent spanRef, name string, into *[]time.Duration, fn func() error) error {
	if !traced {
		return fn()
	}
	sp := wr.tr.begin(parent, name)
	err := fn()
	*into = append(*into, wr.tr.end(sp))
	return err
}

// deliver logs a dissemination message write-ahead and applies it; a
// period close is fenced with an eager fsync, as authserve does.
func (wr *writer) deliver(traced bool, parent spanRef, ri int, key int64, msg *core.UpdateMsg) error {
	r := wr.s.rels[ri]
	var lsn uint64
	if err := wr.step(traced, parent, "wal.append", &wr.st.walAppend, func() (err error) {
		lsn, err = r.store.AppendMsg(msg)
		return err
	}); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	if msg.Summary != nil {
		if err := wr.step(traced, parent, "wal.sync", &wr.st.walSync, r.store.Sync); err != nil {
			return fmt.Errorf("wal sync: %w", err)
		}
	}
	if err := wr.step(traced, parent, "core.apply", &wr.st.coreApply, func() error { return r.qs.Apply(msg) }); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if msg.Summary == nil {
		wr.st.log = append(wr.st.log, logged{rel: ri, lsn: lsn, key: key, ts: msg.TS})
	}
	return nil
}

// one performs the next write: a record update (range workloads) or an
// inner-relation insert (plan_join), then every periodEvery writes a
// ρ-period close on every relation (closed reports that it did).
func (wr *writer) one(traced bool, parent spanRef) (closed bool, err error) {
	s := wr.s
	s.ts++
	ri, key := 0, int64(0)
	var msg *core.UpdateMsg
	err = wr.step(traced, parent, "da.update", &wr.st.daUpdate, func() (err error) {
		switch {
		case s.w.Plan && len(wr.fresh) > 0:
			ri, key = 1, wr.fresh[len(wr.fresh)-1]
			wr.fresh = wr.fresh[:len(wr.fresh)-1]
			wr.done = append(wr.done, key)
			msg, err = s.rels[1].da.Insert(&core.Record{Key: key,
				Attrs: [][]byte{[]byte(fmt.Sprintf("i-late-%d", key))}}, s.ts)
		case s.w.Plan:
			// Every absent key has been inserted (a run far longer than the
			// default): keep the write path busy by updating inserted ones.
			ri, key = 1, wr.done[int(wr.ops)%len(wr.done)]
			msg, err = s.rels[1].da.Update(key, [][]byte{[]byte(fmt.Sprintf("i-upd-%d", s.ts))}, s.ts)
		default:
			if wr.zipf != nil {
				key = wr.keys[wr.cat.starts[wr.zipf.Uint64()]+wr.rng.Intn(s.w.Rows)]
			} else {
				key = wr.keys[wr.rng.Intn(len(wr.keys))]
			}
			payload := make([]byte, recLen-20)
			wr.rng.Read(payload)
			msg, err = s.rels[0].da.Update(key, [][]byte{payload}, s.ts)
		}
		return err
	})
	if err != nil {
		return false, fmt.Errorf("owner write: %w", err)
	}
	if err := wr.deliver(traced, parent, ri, key, msg); err != nil {
		return false, err
	}
	wr.ops++
	if wr.ops%periodEvery != 0 {
		return false, nil
	}
	s.ts++
	for i, r := range s.rels {
		var msg *core.UpdateMsg
		if err := wr.step(traced, parent, "da.closeperiod", &wr.st.closePeriod, func() (err error) {
			msg, err = r.da.ClosePeriod(s.ts)
			return err
		}); err != nil {
			return false, fmt.Errorf("close period: %w", err)
		}
		if err := wr.deliver(traced, parent, i, 0, msg); err != nil {
			return false, err
		}
	}
	if s.w.Plan {
		if err := wr.step(traced, parent, "da.certifyfilter", &wr.st.certify, func() error { return s.certifyFilter(s.ts) }); err != nil {
			return false, err
		}
	}
	return true, nil
}

// run paces writes at the workload's rate from `from` until the window
// ends. Each write is timed from when it was due.
func (wr *writer) run(from time.Time, win window) *writerStats {
	st := wr.st
	p := newPacer(from, wr.s.w.UpdateRate)
	for {
		due := p.next()
		if !due.Before(win.end) {
			return st
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		started := time.Now()
		traced := win.traced(started)
		var root spanRef
		if traced {
			root = wr.tr.begin(spanRef{}, "update")
		}
		closed, err := wr.one(traced, root)
		done := time.Now()
		if traced {
			wr.tr.end(root)
		}
		if !due.Before(win.start) {
			st.attempted++
			if err != nil {
				st.failed++
			} else {
				lat, late := dueLatency(due, started, done)
				st.lat = append(st.lat, lat)
				st.late = append(st.late, late)
				st.ends = append(st.ends, done.Sub(win.start))
				if closed {
					st.periods++
				}
			}
		}
		if err != nil {
			st.err = err
			return st
		}
	}
}
