package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"authdb/internal/aggtree"
	"authdb/internal/btree"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/storage"
	"authdb/internal/wire"
)

// layerSnap reads every exported Stats() struct and the process counters
// at one instant; a traced run takes one at each end of the window.
type layerSnap struct {
	serving core.ServingStats
	net     server.NetStats
	eng     query.Stats
	mem     runtime.MemStats
	cpu     time.Duration // user + system
}

func takeSnap(s *stack) *layerSnap {
	sn := &layerSnap{serving: s.rels[0].qs.ServingStats(), net: s.srv.Stats()}
	if s.eng != nil {
		sn.eng = s.eng.Stats()
	}
	runtime.ReadMemStats(&sn.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		sn.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return sn
}

// replayTimes are the in-process per-layer timings of the replay phase.
type replayTimes struct {
	query, serveHit, serveBuild, encode, decode, verify []time.Duration
	btRange, aggRange, upsert, sign, ingest             []time.Duration
	plan, execute, servePlan, compositeDecode           []time.Duration
	queryOps, aggOps                                    []float64
	wireBytes, rows                                     int
}

// replay pushes the first count requests of reader 0's stream through
// each layer's public functions in-process, one layer at a time, with
// the load stopped: what one answer costs in each layer when nothing
// else contends. Standalone trees are bulk-loaded from the relation's
// current records so the index and aggregation layers are timed without
// the shard and lock machinery around them.
func replay(s *stack, gen *requestGen, count int, tr *spanBuf) (*replayTimes, error) {
	rt := &replayTimes{}
	r0 := s.rels[0]
	timed := func(parent spanRef, name string, into *[]time.Duration, fn func() error) error {
		sp := tr.begin(parent, name)
		err := fn()
		*into = append(*into, tr.end(sp))
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}

	// A fresh user: ingest the whole certified summary stream first.
	v := core.NewVerifier(r0.scheme, r0.pub, core.DefaultConfig())
	v.SetParallelism(1)
	for _, sum := range r0.qs.SummariesSince(0) {
		sum := sum
		if err := timed(spanRef{}, "freshness.ingest", &rt.ingest, func() error { return v.IngestSummary(sum) }); err != nil {
			return nil, err
		}
	}

	st := r0.qs.Snapshot()
	bents := make([]btree.Entry, len(st.Records))
	aents := make([]aggtree.Entry, len(st.Records))
	for i, sr := range st.Records {
		bents[i] = btree.Entry{Key: sr.Rec.Key, RID: sr.Rec.RID, Sig: sr.Sig}
		aents[i] = aggtree.Entry{Key: sr.Rec.Key, RID: sr.Rec.RID, Sig: sr.Sig}
	}
	bt, err := btree.BulkLoad(storage.DefaultPageConfig(), bents)
	if err != nil {
		return nil, err
	}
	at, _, err := aggtree.BulkLoad(r0.scheme, aents)
	if err != nil {
		return nil, err
	}

	buf, coreBuf := wire.GetBuffer(), wire.GetBuffer()
	defer func() { wire.PutBuffer(buf); wire.PutBuffer(coreBuf) }()
	var ranges []core.Range
	var specs []*query.Spec
	for len(ranges) < count && len(specs) < count {
		req := gen.next()
		if req.spec != nil {
			specs = append(specs, req.spec)
			ranges = append(ranges, core.Range{Lo: req.spec.Lo, Hi: req.spec.Hi})
		} else {
			ranges = append(ranges, req.ranges...)
		}
	}
	if len(ranges) > count {
		ranges = ranges[:count]
	}

	for _, rg := range ranges {
		root := tr.begin(spanRef{}, "replay")
		var ans, dec *core.Answer
		if err := timed(root, "core.query", &rt.query, func() (err error) {
			ans, err = r0.qs.Query(rg.Lo, rg.Hi)
			return err
		}); err != nil {
			return nil, err
		}
		rt.queryOps = append(rt.queryOps, float64(ans.Ops))
		// Twice: whatever the first call was (hit or build), the second is
		// a hit unless the entry was denied admission.
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			sp := tr.begin(root, "anscache.serve")
			sv, err := r0.qs.Serve(rg.Lo, rg.Hi)
			tr.end(sp)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replay serve: %w", err)
			}
			switch sv.Source {
			case core.ServedHit:
				rt.serveHit = append(rt.serveHit, d)
			case core.ServedBuilt:
				rt.serveBuild = append(rt.serveBuild, d)
			}
			sv.Release()
		}
		if err := timed(root, "wire.encode", &rt.encode, func() (err error) {
			buf, err = wire.AppendAnswer(buf[:0], ans)
			return err
		}); err != nil {
			return nil, err
		}
		// Bytes per row from the summary-free core the server caches and
		// sends; a cold Query attaches the whole summary history.
		if core, err := wire.AppendAnswerCore(coreBuf[:0], ans); err == nil {
			coreBuf = core
			rt.wireBytes += len(core)
			rt.rows += len(ans.Chain.Records)
		}
		if err := timed(root, "wire.decode", &rt.decode, func() (err error) {
			dec, err = wire.DecodeAnswer(buf)
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed(root, "core.verifyanswers", &rt.verify, func() error {
			_, err := v.VerifyAnswers([]*core.Answer{dec}, []core.Range{rg}, 1<<62)
			return err
		}); err != nil {
			return nil, err
		}
		timed(root, "btree.range", &rt.btRange, func() error {
			bt.RangeWithBoundaries(rg.Lo, rg.Hi)
			return nil
		})
		if err := timed(root, "aggtree.aggrange", &rt.aggRange, func() error {
			_, ops, err := at.AggRange(rg.Lo, rg.Hi)
			rt.aggOps = append(rt.aggOps, float64(ops))
			return err
		}); err != nil {
			return nil, err
		}
		tr.end(root)
	}

	// Incremental maintenance and signing, on seeded picks.
	rng := rand.New(rand.NewSource(s.seed + 5))
	priv, _, err := r0.scheme.KeyGen(rng)
	if err != nil {
		return nil, err
	}
	digest := make([]byte, 32)
	for i := 0; i < count/4; i++ {
		e := aents[rng.Intn(len(aents))]
		if err := timed(spanRef{}, "aggtree.upsert", &rt.upsert, func() error {
			_, _, err := at.Upsert(e)
			return err
		}); err != nil {
			return nil, err
		}
		rng.Read(digest)
		if err := timed(spanRef{}, "sigagg.sign", &rt.sign, func() error {
			_, err := r0.scheme.Sign(priv, digest)
			return err
		}); err != nil {
			return nil, err
		}
	}

	for _, spec := range specs {
		root := tr.begin(spanRef{}, "replay.plan")
		var plan *query.Node
		if err := timed(root, "query.plan", &rt.plan, func() (err error) {
			plan, err = query.Plan(spec, true)
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed(root, "query.execute", &rt.execute, func() error {
			_, err := s.eng.Execute(plan)
			return err
		}); err != nil {
			return nil, err
		}
		var frame []byte
		if err := timed(root, "query.serveplan", &rt.servePlan, func() error {
			body, tails, release, err := s.eng.ServePlan(plan.Marshal(), nil)
			if err != nil {
				return err
			}
			frame = append(append(frame[:0], body...), tails...)
			release()
			return nil
		}); err != nil {
			return nil, err
		}
		if err := timed(root, "wire.composite_decode", &rt.compositeDecode, func() error {
			_, err := wire.DecodeComposite(frame)
			return err
		}); err != nil {
			return nil, err
		}
		tr.end(root)
	}
	return rt, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// addVerifyDelta adds one reader's scheme counters over the window
// (after − before) to sum.
func addVerifyDelta(sum, after, before sigagg.VerifyStats) sigagg.VerifyStats {
	sum.H2CCacheHits += after.H2CCacheHits - before.H2CCacheHits
	sum.H2CCacheMisses += after.H2CCacheMisses - before.H2CCacheMisses
	sum.AggCacheHits += after.AggCacheHits - before.AggCacheHits
	sum.AggCacheMisses += after.AggCacheMisses - before.AggCacheMisses
	sum.FastVerifies += after.FastVerifies - before.FastVerifies
	sum.PortableVerifies += after.PortableVerifies - before.PortableVerifies
	return sum
}
