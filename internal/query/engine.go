package query

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"authdb/internal/anscache"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// relView is one relation as the executor sees it: its name and its
// query server, which holds everything the relation serves — the
// owner-certified Bloom filter on its key attribute (QueryServer.Filter)
// included.
type relView struct {
	name string
	qs   *core.QueryServer
}

// Engine executes plans over a catalog of authenticated relations
// and serves the resulting composite answers through an epoch-validated
// cache. It is safe for concurrent use.
type Engine struct {
	mu   sync.RWMutex
	rels map[string]*relView

	cache *anscache.Cache

	planQueries atomic.Uint64
	joinProbes  atomic.Uint64
	bfProbes    atomic.Uint64
	bfNegatives atomic.Uint64
	bfFallbacks atomic.Uint64
	projRows    atomic.Uint64
	stampShards atomic.Uint64
	unchanged   atomic.Uint64
}

// EngineOption configures an Engine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	cacheBytes int64
}

// WithCacheBytes bounds the answer cache's resident bytes; 0 (or less)
// serves every request uncached.
func WithCacheBytes(n int64) EngineOption {
	return func(c *engineConfig) { c.cacheBytes = n }
}

// NewEngine creates an empty executor; add relations before serving.
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{cacheBytes: anscache.DefaultMaxBytes}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{rels: make(map[string]*relView)}
	if cfg.cacheBytes > 0 {
		e.cache = anscache.New(anscache.WithMaxBytes(cfg.cacheBytes))
	}
	return e
}

// AddRelation registers a named relation's query server.
func (e *Engine) AddRelation(name string, qs *core.QueryServer) error {
	if name == "" || qs == nil {
		return fmt.Errorf("query: relation needs a name and a server")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rels[name]; dup {
		return fmt.Errorf("query: duplicate relation %q", name)
	}
	e.rels[name] = &relView{name: name, qs: qs}
	return nil
}

func (e *Engine) rel(name string) (*relView, error) {
	e.mu.RLock()
	rv := e.rels[name]
	e.mu.RUnlock()
	if rv == nil {
		return nil, fmt.Errorf("query: unknown relation %q", name)
	}
	return rv, nil
}

// Relations lists the registered relation names, sorted.
func (e *Engine) Relations() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- execution ----

// Result is one executed plan: the composite answer core (no summary
// tails — those are per-client).
type Result struct {
	Comp *wire.Composite
	rels []relOldest // the relations the plan touched, in name order
}

// relOldest is one relation a plan touched and the timestamp of the
// oldest signature among the proofs it contributed: how far back a cold
// client's summary tail must reach.
type relOldest struct {
	rv *relView
	ts int64
}

// exec runs the plan and returns, beside the result, the stamp a cached
// copy of it is valid under. The rule: a composite is stale only where
// its execution read. The stamp holds
//
//   - outer: the scan's own stamp — the shard window QueryStamped /
//     QueryProj held read locks on, epochs read under those locks;
//   - inner, BF joins: the filter's epoch, read together with the
//     certificate before any inner data, so a re-certification during
//     execution reads as stale. It covers every byte of a Bloom negative
//     (partition + signature come from the certificate alone) and which
//     keys needed a run. A BV join reads no filter and stamps none;
//   - inner, every run: the stamp QueryStamped(first, last) returns. Its
//     window spans every shard the scan, its predecessor/successor walk
//     and an anchor's own neighbours looked into — empty shards crossed
//     on the way to a neighbouring shard's boundary record included — so
//     any update that can change one byte of that proof (a record, a
//     neighbour reference, the anchor) write-locks a shard inside the
//     window and bumps its epoch there (core.Apply); an installed
//     image (a load or a Restore) bumps every shard;
//   - inner, the keys-only walk that decided the runs' extents: the
//     shards it read, like any scan's — where it saw a record that joins
//     nothing decides which keys share a run;
//   - inner, every surviving Bloom negative: the epoch of the shard
//     owning the outer key. The proof itself read no inner data, but
//     inserting a key a cached plan proved absent must retire that plan
//     without waiting for the next re-certification.
//
// A counter two of these read keeps its older reading (Stamp.Merge).
// Nothing else of the inner relation is stamped: an update to a shard no
// probe read cannot change the composite's bytes, and leaves it serving.
func (e *Engine) exec(p *Spec) (*Result, anscache.Stamp, error) {
	var zero anscache.Stamp
	outer, err := e.rel(p.Rel)
	if err != nil {
		return nil, zero, err
	}
	e.planQueries.Add(1)

	// The selection: one authenticated range scan, with the attribute
	// sideband when the plan projects.
	var (
		outAns *core.Answer
		rows   []core.AttrRow
		stamp  anscache.Stamp
	)
	if p.Attrs != nil {
		outAns, rows, stamp, err = outer.qs.QueryProj(p.Lo, p.Hi)
	} else {
		outAns, stamp, err = outer.qs.QueryStamped(p.Lo, p.Hi)
	}
	if err != nil {
		return nil, zero, fmt.Errorf("query: outer scan %q: %w", outer.name, err)
	}

	comp := &wire.Composite{Outer: outAns.Chain}
	rels := []relOldest{{outer, outAns.OldestSigTS}}

	if p.Join != nil {
		inner, err := e.rel(p.Join.Rel)
		if err != nil {
			return nil, zero, err
		}
		var fc *join.FilterCert
		if p.Join.Method == join.BF {
			if fc = inner.qs.Filter(&stamp); fc == nil {
				return nil, zero, fmt.Errorf("query: BF join against %q without a certified filter", inner.name)
			}
		}
		var read anscache.Stamp // the inner relation's data shards
		ja, innerOldest, err := e.probe(inner, p.Join.Method, fc, outAns.Chain.Records, &read)
		if err != nil {
			return nil, zero, err
		}
		comp.Join = ja
		switch {
		case inner == outer: // self-join: one relation, one tail
			rels[0].ts = min(rels[0].ts, innerOldest)
		case inner.name < outer.name:
			rels = []relOldest{{inner, innerOldest}, rels[0]}
		default:
			rels = append(rels, relOldest{inner, innerOldest})
		}
		e.stampShards.Add(uint64(read.Len()))
		stamp.Merge(read)
	}

	if p.Attrs != nil {
		pans, err := e.project(outer, p.Attrs, outAns.Chain.Records, rows)
		if err != nil {
			return nil, zero, err
		}
		comp.Proj = pans
	}

	return &Result{Comp: comp, rels: rels}, stamp, nil
}

// probe resolves the outer keys against the inner relation with as few
// scans as the inner relation allows (the run rule of package join): a
// keys-only walk of the inner index between the first and the last key
// that needs a live proof — every key of a BV join, the certified
// filter's positives of a BF join — finds the records that join nothing,
// and each stretch of outer keys between two of them is answered by one
// range scan from its first live key to its last (scanRuns). The walk
// gives up after reading twice as many inner keys as there are outer keys
// (a relation that dense against the outer one has a stranger in nearly
// every gap), leaving the keys it did not reach one scan each. Outer keys
// no run covers are filter negatives, answered from the certificate
// alone. What each shipped piece read is recorded in read (see exec).
func (e *Engine) probe(rv *relView, method join.Method, fc *join.FilterCert,
	outer []*chain.Record, read *anscache.Stamp) (*join.Answer, int64, error) {

	js := joinScan{rv: rv, fc: fc, keys: join.OuterKeys(outer), ja: &join.Answer{Method: method}, read: read, oldest: math.MaxInt64}
	if method == join.BF {
		js.oldest = fc.TS
		e.bfProbes.Add(uint64(len(js.keys)))
		var err error
		if js.live, js.part, err = fc.Probe(js.keys); err != nil {
			return nil, 0, fmt.Errorf("query: certified filter for %q: %w", rv.name, err)
		}
	}
	var extents [][2]int
	if first, last, ok := liveSpan(js.live, 0, len(js.keys)-1); ok {
		// Room for every outer key to match and one stranger more than
		// there are outer keys; sized for an inner relation inside the outer.
		most := 2*len(js.keys) + 1
		inner, st := rv.qs.AppendKeys(make([]int64, 0, len(js.keys)), js.keys[first], js.keys[last], most)
		read.Merge(st)
		extents = join.Extents(js.keys, js.live, inner, len(inner) == most)
	}
	if err := e.scanRuns(&js, extents); err != nil {
		return nil, 0, err
	}
	return js.ja, js.oldest, nil
}

// joinScan is one join section under construction.
type joinScan struct {
	rv   *relView
	fc   *join.FilterCert // BF only
	keys []int64          // the outer keys, ascending
	live []bool           // BF: the filter admits the key; nil for BV, where every key is live
	part []int            // BF: the partition covering the key

	ja     *join.Answer
	read   *anscache.Stamp
	oldest int64 // the oldest signature timestamp among the shipped proofs
}

// scanRuns ships one scan of the inner relation per extent (index pairs
// into js.keys, ascending) and a Bloom negative for every key outside
// them. Every scan is held to the outer keys before it is shipped, and
// split at a record that matches none — an insert can land between the
// walk that chose the extents and the scan — so an honest server never
// emits a run a client must refuse.
func (e *Engine) scanRuns(js *joinScan, todo [][2]int) error {
	keys, live := js.keys, js.live
	next := 0 // the first outer key nothing has resolved yet
	negatives := func(upto int) {
		for ; next < upto; next++ {
			e.bfNegatives.Add(1)
			js.ja.AddNegative(js.fc, js.part[next], keys[next])
			js.rv.qs.StampKey(js.read, keys[next])
		}
	}
	for len(todo) > 0 {
		a, b := todo[0][0], todo[0][1]
		e.joinProbes.Add(1)
		pa, st, err := js.rv.qs.QueryStamped(keys[a], keys[b])
		if err != nil {
			return fmt.Errorf("query: scan %q [%d,%d]: %w", js.rv.name, keys[a], keys[b], err)
		}
		// k walks keys[a..b] beside the records, which lie inside
		// [keys[a], keys[b]].
		split, hits := -1, 0 // hits: live keys the scan found a record for
		k := a
		for _, rec := range pa.Chain.Records {
			for keys[k] < rec.Key {
				k++
			}
			if keys[k] != rec.Key {
				split = k
				break
			}
			if live != nil && live[k] {
				hits++
			}
		}
		if split >= 0 {
			// A record that joins nothing, between keys[split-1] and
			// keys[split]: scan either side of it instead.
			pieces := make([][2]int, 0, len(todo)+1)
			for _, p := range [2][2]int{{a, split - 1}, {split, b}} {
				if x, y, ok := liveSpan(live, p[0], p[1]); ok {
					pieces = append(pieces, [2]int{x, y})
				}
			}
			todo = append(pieces, todo[1:]...)
			continue
		}
		todo = todo[1:]
		negatives(a)
		next = b + 1
		js.ja.Runs = append(js.ja.Runs, pa.Chain)
		js.read.Merge(st)
		js.oldest = min(js.oldest, pa.OldestSigTS)
		if live != nil {
			admitted := 0 // keys of the run the filter let through
			for _, l := range live[a : b+1] {
				if l {
					admitted++
				}
			}
			e.bfFallbacks.Add(uint64(admitted - hits))
		}
	}
	negatives(len(keys))
	return nil
}

// liveSpan narrows the keys [a, b] to the first and the last live one
// among them; ok is false when none is.
func liveSpan(live []bool, a, b int) (_, _ int, ok bool) {
	if live != nil {
		for a <= b && !live[a] {
			a++
		}
		for b >= a && !live[b] {
			b--
		}
	}
	return a, b, a <= b
}

// project assembles the §3.4 projection section: the selected values of
// every chained record, from one flat array, with one aggregate over the
// owner's attribute-level signatures.
func (e *Engine) project(outer *relView, attrs []int, recs []*chain.Record, rows []core.AttrRow) (*projection.Answer, error) {
	prows := make([]projection.Row, len(recs))
	ops := make([][]sigagg.Operand, len(recs))
	vals := make([][]byte, len(recs)*len(attrs))
	for i := range recs {
		row := &rows[i]
		v := vals[i*len(attrs) : (i+1)*len(attrs) : (i+1)*len(attrs)]
		for j, a := range attrs {
			if a >= len(row.Vals) {
				return nil, fmt.Errorf("query: attribute slot %d out of range for key %d (%d slots)",
					a, recs[i].Key, len(row.Vals))
			}
			v[j] = row.Vals[a]
		}
		prows[i] = projection.Row{RID: row.RID, TS: row.TS, Values: v}
		ops[i] = row.Ops
	}
	e.projRows.Add(uint64(len(prows)))
	return projection.Build(outer.qs.Scheme(), append([]int(nil), attrs...), prows, ops)
}

// ---- serving ----

// Served is one answered plan request: Body then Tails is one 'C' message
// — the pre-encoded composite answer core, possibly the cache's own bytes,
// and this client's relation summary tails; or, for an "unchanged" reply,
// no Body and the whole message in Tails. Both are valid until Release,
// which must be called exactly once, after the bytes are written out.
type Served struct {
	Body, Tails []byte
	entry       *anscache.Entry // the cache's hold on Body; nil when Body was encoded for this response alone
}

// Release drops the holds the served bytes were read under.
func (sv *Served) Release() {
	sv.releaseBody()
	wire.PutBuffer(sv.Tails)
}

func (sv *Served) releaseBody() {
	switch {
	case sv.entry != nil:
		sv.entry.Release()
	case sv.Body != nil:
		wire.PutBuffer(sv.Body)
	}
}

// built is what an answer-cache entry keeps beside the encoded core: what
// the tails need — each touched relation's oldest proof timestamp — and
// the core's wire.CoreDigest, computed the first time a request names a
// held answer, and only then.
type built struct {
	rels   []relOldest
	mu     sync.Mutex    // held while the digest is computed
	digest atomic.Uint64 // 0 until computed (wire.CoreDigest is never 0)
}

// coreDigest is the digest of the entry's core bytes, which are body.
func (b *built) coreDigest(body []byte) uint64 {
	if d := b.digest.Load(); d != 0 {
		return d
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if d := b.digest.Load(); d != 0 {
		return d
	}
	d := wire.CoreDigest(body)
	b.digest.Store(d)
	return d
}

// Serve decodes, executes and encodes one plan request through the
// engine's one answer cache. Every plan, a bare scan included, is keyed
// by its range and its canonical bytes, so the scans and plans of every
// relation share one key space and one byte budget. A bare scan — most
// of the traffic — is recognised before a Spec is decoded for it.
//
// since is the client's summary position per relation: at most one entry
// for each relation the plan names, and none for any other. held is the
// wire.CoreDigest of the answer core the client holds for the plan (0 =
// none): when the current core has that digest, the reply is the
// "unchanged" form, the tails alone. The digest is of content, so an
// entry rebuilt only because an epoch it was stamped with moved still
// reads as unchanged.
func (e *Engine) Serve(planBytes []byte, since []wire.RelSince, held uint64) (Served, error) {
	var p *Spec
	if rel, lo, hi, ok := bareScan(planBytes); ok {
		rv, err := e.rel(string(rel))
		if err != nil {
			return Served{}, err
		}
		p = &Spec{Rel: rv.name, Lo: lo, Hi: hi}
	} else {
		var err error
		if p, err = UnmarshalPlan(planBytes); err != nil {
			return Served{}, err
		}
	}
	inner := p.Rel
	if p.Join != nil {
		inner = p.Join.Rel
	}
	if err := checkSince(since, p.Rel, inner); err != nil {
		return Served{}, err
	}
	// The received bytes are the canonical encoding (bareScan and
	// UnmarshalPlan accept no other). The key views them in place, so a
	// hit copies nothing; the cache copies them before it keeps a key
	// past the request frame.
	key := anscache.Key{Lo: p.Lo, Hi: p.Hi, Plan: unsafe.String(unsafe.SliceData(planBytes), len(planBytes))}
	// An entry keeps the encoded answer and what the tails need, not the
	// composite it was encoded from: that object graph is as large again
	// as the bytes and nothing reads it back. The answer is encoded into a
	// pooled buffer that serves this build's flight and returns to the
	// pool on its last Release; the cache keeps an exactly sized copy of
	// what it admits.
	build := func() (*anscache.Entry, error) {
		r, stamp, err := e.exec(p)
		if err != nil {
			return nil, err
		}
		buf, err := wire.AppendCompositeCore(wire.GetBuffer(), r.Comp)
		if err != nil {
			wire.PutBuffer(buf)
			return nil, err
		}
		return &anscache.Entry{Key: key, Value: &built{rels: r.rels}, Wire: buf, Stamp: stamp, Free: wire.PutBuffer}, nil
	}
	var sv Served
	var entry *anscache.Entry
	var err error
	if e.cache == nil {
		// Resident nowhere: the response owns the buffer.
		entry, err = build()
		if err != nil {
			return Served{}, err
		}
		sv.Body = entry.Wire
	} else {
		if entry, _, err = e.cache.Do(key, build); err != nil {
			return Served{}, err
		}
		sv.Body, sv.entry = entry.Wire, entry
	}
	b := entry.Value.(*built)
	tails := wire.GetBuffer()
	if held != 0 && b.coreDigest(entry.Wire) == held {
		sv.releaseBody()
		sv = Served{}
		e.unchanged.Add(1)
		tails = wire.AppendUnchanged(tails)
	}
	sv.Tails = relTails(tails, b.rels, since)
	return sv, nil
}

// checkSince holds a request's summary positions against the one or two
// relations its plan names (inner is outer for a plan with no join): at
// most one position for each, and none for any other.
func checkSince(since []wire.RelSince, outer, inner string) error {
	for i, rs := range since {
		if rs.Name != outer && rs.Name != inner {
			return fmt.Errorf("query: summary position for relation %q, which the plan does not name", rs.Name)
		}
		for _, prev := range since[:i] {
			if prev.Name == rs.Name {
				return fmt.Errorf("query: two summary positions for relation %q", rs.Name)
			}
		}
	}
	return nil
}

// relTails appends to buf one summary tail per touched relation,
// resuming each client from the sequence number it already holds.
func relTails(buf []byte, rels []relOldest, since []wire.RelSince) []byte {
	var out [2]wire.RelTail // a plan touches at most two relations
	for i, ro := range rels {
		var sinceSeq uint64
		for _, rs := range since {
			if rs.Name == ro.rv.name {
				sinceSeq = rs.SinceSeq
			}
		}
		out[i] = wire.RelTail{Rel: ro.rv.name, Summaries: ro.rv.qs.SummariesTail(sinceSeq, ro.ts)}
	}
	return wire.AppendRelTails(buf, out[:len(rels)])
}

// ServeRelSummaries answers a 'T' request: one relation's certified
// summaries after sinceSeq, or since oldestTS for a session holding none
// — the log-in fetch, a gap in a tail, and a reconnecting session's
// re-anchor all ask through it.
func (e *Engine) ServeRelSummaries(rel string, sinceSeq uint64, oldestTS int64) ([]freshness.Summary, error) {
	rv, err := e.rel(rel)
	if err != nil {
		return nil, err
	}
	return rv.qs.SummariesTail(sinceSeq, oldestTS), nil
}

// Stats are the executor's monotonic counters.
type Stats struct {
	PlanQueries uint64 // plans executed, bare scans included (cache hits not included)
	JoinProbes  uint64 // range scans issued against inner relations: one per run shipped, plus any rescanned after a split
	BFProbes    uint64 // outer keys probed through a certified filter
	BFNegatives uint64 // outer keys a filter negative alone answered (negatives inside a run are the run's)
	BFFallbacks uint64 // false positives: keys the filter admitted that their run holds no record for
	ProjRows    uint64 // projected rows emitted
	StampShards uint64 // inner data shards stamped, summed over executed join plans
	Unchanged   uint64 // requests naming a held answer the current one equals, answered with the tails alone
	Cache       anscache.Stats
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		PlanQueries: e.planQueries.Load(),
		JoinProbes:  e.joinProbes.Load(),
		BFProbes:    e.bfProbes.Load(),
		BFNegatives: e.bfNegatives.Load(),
		BFFallbacks: e.bfFallbacks.Load(),
		ProjRows:    e.projRows.Load(),
		StampShards: e.stampShards.Load(),
		Unchanged:   e.unchanged.Load(),
	}
	if e.cache != nil {
		s.Cache = e.cache.Stats()
	}
	return s
}
