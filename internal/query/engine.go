package query

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"authdb/internal/anscache"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// FilterShard is the pseudo-shard index under which a relation's
// certified-Bloom-filter epoch is stamped. Re-certifying the filter
// bumps it, so cached BF join answers built against the old filter are
// invalidated exactly like answers built against old data.
const FilterShard = -1

// relView is one relation as the executor sees it: the query server
// plus the owner-certified Bloom filter on its key attribute.
type relView struct {
	name string
	qs   *core.QueryServer

	mu      sync.RWMutex
	fc      *join.FilterCert
	fcEpoch atomic.Uint64
}

// Engine executes plan trees over a catalog of authenticated relations
// and serves the resulting composite answers through an epoch-validated
// cache. It is safe for concurrent use.
type Engine struct {
	mu   sync.RWMutex
	rels map[string]*relView

	par   int
	cache *anscache.Cache

	planQueries atomic.Uint64
	joinProbes  atomic.Uint64
	bfProbes    atomic.Uint64
	bfNegatives atomic.Uint64
	bfFallbacks atomic.Uint64
	projRows    atomic.Uint64
	stampShards atomic.Uint64
}

// EngineOption configures an Engine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	par        int
	cacheBytes int64
	cacheOff   bool
}

// WithParallelism caps the workers fanned over independent join-probe
// subplans (default GOMAXPROCS).
func WithParallelism(n int) EngineOption {
	return func(c *engineConfig) {
		if n >= 1 {
			c.par = n
		}
	}
}

// WithCacheBytes bounds the plan cache's resident wire bytes.
func WithCacheBytes(n int64) EngineOption {
	return func(c *engineConfig) {
		if n > 0 {
			c.cacheBytes = n
		}
	}
}

// WithoutCache disables the plan answer cache (every ServePlan call
// executes the plan).
func WithoutCache() EngineOption {
	return func(c *engineConfig) { c.cacheOff = true }
}

// NewEngine creates an empty executor; add relations before serving.
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{par: runtime.GOMAXPROCS(0), cacheBytes: anscache.DefaultMaxBytes}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{rels: make(map[string]*relView), par: cfg.par}
	if !cfg.cacheOff {
		e.cache = anscache.New(e, anscache.WithMaxBytes(cfg.cacheBytes))
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

// SetFilter installs (or replaces) the owner-certified Bloom filter for
// a relation's key attribute and bumps its filter epoch, invalidating
// every cached BF join answer built against the previous filter.
func (e *Engine) SetFilter(name string, fc *join.FilterCert) error {
	if fc == nil {
		return fmt.Errorf("query: nil filter certificate")
	}
	rv, err := e.rel(name)
	if err != nil {
		return err
	}
	rv.mu.Lock()
	rv.fc = fc
	rv.fcEpoch.Add(1)
	rv.mu.Unlock()
	return nil
}

// Filter returns the relation's current certified filter (nil if none).
func (e *Engine) Filter(name string) *join.FilterCert {
	rv, err := e.rel(name)
	if err != nil {
		return nil
	}
	rv.mu.RLock()
	defer rv.mu.RUnlock()
	return rv.fc
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

// ---- anscache.RelEpochSource ----

// DataEpoch satisfies EpochSource; engine stamps are always relation
// scoped, so the unscoped epochs are unused.
func (e *Engine) DataEpoch(int) uint64 { return 0 }

// RelDataEpoch resolves one relation's live shard epoch (or its filter
// epoch for FilterShard). An unknown relation reads as a sentinel no
// stamp can carry, so its entries conservatively invalidate.
func (e *Engine) RelDataEpoch(rel string, shard int) uint64 {
	e.mu.RLock()
	rv := e.rels[rel]
	e.mu.RUnlock()
	if rv == nil {
		return math.MaxUint64
	}
	if shard == FilterShard {
		return rv.fcEpoch.Load()
	}
	if shard < 0 || shard >= rv.qs.Shards() {
		return math.MaxUint64
	}
	return rv.qs.DataEpoch(shard)
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

// Execute runs the plan with the engine's configured parallelism.
func (e *Engine) Execute(n *Node) (*Result, error) {
	return e.execute(n, e.par)
}

// ExecuteSerial runs the plan with join probes strictly serialized —
// the baseline the parallel executor is benchmarked against.
func (e *Engine) ExecuteSerial(n *Node) (*Result, error) {
	return e.execute(n, 1)
}

func (e *Engine) execute(n *Node, workers int) (*Result, error) {
	s, err := analyze(n)
	if err != nil {
		return nil, err
	}
	r, _, err := e.exec(&s, workers)
	return r, err
}

func relStampOf(name string, st anscache.Stamp) anscache.RelStamp {
	rs := anscache.RelStamp{Rel: name, Epochs: st.Epochs, Shards: make([]int, len(st.Epochs))}
	for i := range rs.Shards {
		rs.Shards[i] = st.First + i
	}
	return rs
}

// readSet merges the shard epochs one execution's join probes read from
// the inner relation into that relation's sparse stamp. A shard seen
// twice keeps the LOWER epoch: the stamp may never claim a version
// newer than the oldest data some probe actually read, or an update
// landing between two probes would be masked. Probes run on several
// workers, hence the mutex.
type readSet struct {
	mu     sync.Mutex
	seen   []bool
	epochs []uint64
}

func newReadSet(shards int) *readSet {
	return &readSet{seen: make([]bool, shards), epochs: make([]uint64, shards)}
}

// add records that shards first, first+1, … were read at the given
// epochs.
func (r *readSet) add(first int, epochs ...uint64) {
	r.mu.Lock()
	for i, e := range epochs {
		if s := first + i; !r.seen[s] || e < r.epochs[s] {
			r.seen[s], r.epochs[s] = true, e
		}
	}
	r.mu.Unlock()
}

// appendTo appends the merged shards, ascending, to rs and reports how
// many there were.
func (r *readSet) appendTo(rs *anscache.RelStamp) (n int) {
	for s, ok := range r.seen {
		if ok {
			rs.Shards = append(rs.Shards, s)
			rs.Epochs = append(rs.Epochs, r.epochs[s])
			n++
		}
	}
	return n
}

// exec runs the plan and returns, beside the result, the stamp a cached
// copy of it is valid under. The rule: a composite is stale only where
// its execution read. Per relation the stamp lists
//
//   - outer: the scan's own stamp — the shard window QueryStamped /
//     QueryProj held read locks on, epochs read under those locks;
//   - inner, BF joins: the filter epoch (FilterShard), read together
//     with the certificate before any data, so a re-certification during
//     execution reads as stale. It covers every byte of a Bloom-negative
//     proof (partition + signature come from the certificate alone);
//   - inner, every live probe (a match, a BV boundary, a BF false
//     positive's fallback): the stamp QueryStamped(v, v) returns. Its
//     window spans every shard the point scan, its predecessor/successor
//     walk and the anchor's own neighbours looked into — empty shards
//     crossed on the way to a neighbouring shard's boundary record
//     included — so any update that can change one byte of that proof
//     (the record, a neighbour reference, the anchor) write-locks a
//     shard inside the window and bumps its epoch there (core.Apply);
//     reseeding, Restore and the bulk load bump every shard;
//   - inner, every Bloom negative: the epoch of the shard owning the
//     outer key. The proof itself read no inner data, but inserting a
//     key a cached plan proved absent must retire that plan without
//     waiting for the next re-certification.
//
// Nothing else of the inner relation is stamped: an update to a shard no
// probe read cannot change the composite's bytes, and leaves it serving.
func (e *Engine) exec(s *shape, workers int) (*Result, anscache.Stamp, error) {
	var zero anscache.Stamp
	outer, err := e.rel(s.scan.Rel)
	if err != nil {
		return nil, zero, err
	}
	e.planQueries.Add(1)

	var (
		inner      *relView
		fc         *join.FilterCert
		innerStamp anscache.RelStamp
	)
	if s.jn != nil {
		if inner, err = e.rel(s.jn.Right.Rel); err != nil {
			return nil, zero, err
		}
		inner.mu.RLock()
		fc = inner.fc
		fcEpoch := inner.fcEpoch.Load()
		inner.mu.RUnlock()
		if s.jn.Method == join.BF && fc == nil {
			return nil, zero, fmt.Errorf("query: BF join against %q without a certified filter", inner.name)
		}
		innerStamp = anscache.RelStamp{Rel: inner.name}
		if s.jn.Method == join.BF {
			innerStamp.Shards = append(innerStamp.Shards, FilterShard)
			innerStamp.Epochs = append(innerStamp.Epochs, fcEpoch)
		}
	}

	// Outer leaf: one authenticated range scan, with the attribute
	// sideband when the plan projects.
	var (
		outAns *core.Answer
		rows   []core.AttrRow
		stamp  anscache.Stamp
	)
	if s.proj != nil {
		outAns, rows, stamp, err = outer.qs.QueryProj(s.scan.Lo, s.scan.Hi)
	} else {
		outAns, stamp, err = outer.qs.QueryStamped(s.scan.Lo, s.scan.Hi)
	}
	if err != nil {
		return nil, zero, fmt.Errorf("query: outer scan %q: %w", outer.name, err)
	}

	// Residual filter (naive plans only): narrow the joined/projected
	// window; the chain proof still covers the scanned range.
	keep := outAns.Chain.Records
	keepRows := rows
	if s.filter != nil {
		lo := sort.Search(len(keep), func(i int) bool { return keep[i].Key >= s.filter.Lo })
		hi := sort.Search(len(keep), func(i int) bool { return keep[i].Key > s.filter.Hi })
		keep = keep[lo:hi]
		if rows != nil {
			keepRows = rows[lo:hi]
		}
	}

	comp := &wire.Composite{Outer: outAns.Chain}
	rels := []relOldest{{outer, outAns.OldestSigTS}}
	relStamps := []anscache.RelStamp{relStampOf(outer.name, stamp)}

	if s.jn != nil {
		read := newReadSet(inner.qs.Shards())
		ja, innerOldest, err := e.probe(inner, s.jn.Method, fc, keep, workers, read)
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
		e.stampShards.Add(uint64(read.appendTo(&innerStamp)))
		relStamps = append(relStamps, innerStamp)
	}

	if s.proj != nil {
		pans, err := e.project(outer, s.proj.Attrs, keep, keepRows)
		if err != nil {
			return nil, zero, err
		}
		comp.Proj = pans
	}

	return &Result{Comp: comp, rels: rels}, anscache.Stamp{Rels: relStamps}, nil
}

// probe resolves each outer key against the inner relation: for BF
// joins a certified-filter negative proves absence without touching the
// server's data at all; positives (and every BV probe) run a live point
// scan whose chained answer is either the match proof or — on a Bloom
// false positive — the boundary fallback. What each resolution read is
// recorded in read (see exec).
func (e *Engine) probe(rv *relView, method join.Method, fc *join.FilterCert,
	outer []*chain.Record, workers int, read *readSet) (*join.Answer, int64, error) {

	ja := &join.Answer{Method: method}
	if method == join.BF {
		ja.FilterTS = fc.TS
	}
	type probeOut struct {
		match  *chain.Answer
		un     *join.UnmatchedProof
		oldest int64
	}
	outs := make([]probeOut, len(outer))
	err := sigagg.ForChunks(len(outer), workers, 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			outs[i].oldest = math.MaxInt64
			v := outer[i].Key
			if method == join.BF {
				e.bfProbes.Add(1)
				idx := fc.PF.Find(v)
				if idx < 0 {
					return fmt.Errorf("query: certified filter for %q is empty", rv.name)
				}
				part := &fc.PF.Partitions[idx]
				if !part.Filter.MayContainUint64(uint64(v)) {
					e.bfNegatives.Add(1)
					outs[i].un = &join.UnmatchedProof{RA: v, Partition: part, PartSig: fc.Sigs[idx]}
					read.add(rv.qs.KeyEpoch(v))
					continue
				}
			}
			e.joinProbes.Add(1)
			pa, st, err := rv.qs.QueryStamped(v, v)
			if err != nil {
				return fmt.Errorf("query: probe %q key %d: %w", rv.name, v, err)
			}
			read.add(st.First, st.Epochs...)
			outs[i].oldest = pa.OldestSigTS
			if len(pa.Chain.Records) > 0 {
				outs[i].match = pa.Chain
			} else {
				if method == join.BF {
					e.bfFallbacks.Add(1)
				}
				outs[i].un = &join.UnmatchedProof{RA: v, Boundary: pa.Chain}
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	oldest := int64(math.MaxInt64)
	if method == join.BF {
		oldest = fc.TS
	}
	for i := range outs {
		if outs[i].match != nil {
			ja.Matches = append(ja.Matches, outs[i].match)
		}
		if outs[i].un != nil {
			ja.Unmatched = append(ja.Unmatched, *outs[i].un)
		}
		if outs[i].oldest < oldest {
			oldest = outs[i].oldest
		}
	}
	return ja, oldest, nil
}

// project assembles the §3.4 projection section: per-row selected
// values with one aggregate over the owner's attribute-level signatures.
func (e *Engine) project(outer *relView, attrs []int, keep []*chain.Record, rows []core.AttrRow) (*projection.Answer, error) {
	prows := make([]projection.Row, len(keep))
	ops := make([][]sigagg.Operand, len(keep))
	for i := range keep {
		row := rows[i]
		vals := make([][]byte, len(attrs))
		for j, a := range attrs {
			if a >= len(row.Vals) {
				return nil, fmt.Errorf("query: attribute slot %d out of range for key %d (%d slots)",
					a, keep[i].Key, len(row.Vals))
			}
			vals[j] = row.Vals[a]
		}
		prows[i] = projection.Row{RID: row.RID, TS: row.TS, Values: vals}
		ops[i] = row.Ops
	}
	e.projRows.Add(uint64(len(prows)))
	return projection.Build(outer.qs.Scheme(), append([]int(nil), attrs...), prows, ops)
}

// ---- serving ----

// Served is one answered plan request: Body then Tails is one 'C' message
// — the pre-encoded composite answer core, possibly a cache's own bytes,
// and this client's relation summary tails. Both are valid until Release,
// which must be called exactly once, after the bytes are written out.
type Served struct {
	Body, Tails []byte
	scan        core.Served     // a bare scan's hold on its relation's answer cache…
	entry       *anscache.Entry // …an operator plan's on the plan cache
	own         bool            // Body was encoded for this response alone
}

// Release drops the holds the served bytes were read under.
func (sv *Served) Release() {
	sv.scan.Release()
	if sv.entry != nil {
		sv.entry.Release()
	}
	if sv.own {
		wire.PutBuffer(sv.Body)
	}
	wire.PutBuffer(sv.Tails)
}

// ServePlan is Serve for callers that take the release as a function.
func (e *Engine) ServePlan(planBytes []byte, since []wire.RelSince) (body, tails []byte, release func(), err error) {
	sv, err := e.Serve(planBytes, since)
	if err != nil {
		return nil, nil, nil, err
	}
	return sv.Body, sv.Tails, sv.Release, nil
}

// Serve decodes, executes and encodes one plan request.
//
// A bare scan is answered by the scanned relation's own serving layer
// (QueryServer.Serve): its answer cache, when enabled, holds exactly the
// leaf composite core (the codec is server.Codec's), so a range
// selection is cached once, where the relation's updates invalidate it —
// and, being most of the traffic, is recognised before a tree is built
// for it. Plans with operators are served from the engine's epoch-stamped
// plan cache.
//
// since is the client's summary position per relation: at most one entry
// for each relation the plan names, and none for any other.
func (e *Engine) Serve(planBytes []byte, since []wire.RelSince) (Served, error) {
	if rel, lo, hi, ok := bareScan(planBytes); ok {
		rv, err := e.rel(string(rel))
		if err != nil {
			return Served{}, err
		}
		if err := checkSince(since, rv.name, rv.name); err != nil {
			return Served{}, err
		}
		return serveScan(rv, lo, hi, since)
	}
	n, s, err := parsePlan(planBytes)
	if err != nil {
		return Served{}, err
	}
	inner := s.scan.Rel
	if s.jn != nil {
		inner = s.jn.Right.Rel
	}
	if err := checkSince(since, s.scan.Rel, inner); err != nil {
		return Served{}, err
	}
	// Key on the canonical re-encoding, not the received bytes: the key
	// outlives the request frame the bytes arrived in.
	lo, hi := s.selection()
	key := anscache.Key{Lo: lo, Hi: hi, Plan: string(n.Marshal())}
	// An entry keeps the encoded answer and what the tails need — each
	// touched relation's oldest proof timestamp — not the composite it was
	// encoded from: that object graph is as large again as the bytes and
	// nothing reads it back.
	build := func() (*anscache.Entry, error) {
		r, stamp, err := e.exec(&s, e.par)
		if err != nil {
			return nil, err
		}
		buf, err := wire.AppendCompositeCore(wire.GetBuffer(), r.Comp)
		if err != nil {
			wire.PutBuffer(buf)
			return nil, err
		}
		// The cache charges len(Wire), and a pooled buffer's capacity is
		// whatever the pool last held: a resident entry keeps an exactly
		// sized copy, so the byte budget bounds what the cache pins.
		data := make([]byte, len(buf))
		copy(data, buf)
		wire.PutBuffer(buf)
		return &anscache.Entry{Key: key, Value: r.rels, Wire: data, Stamp: stamp}, nil
	}
	var entry *anscache.Entry
	if e.cache != nil {
		entry, _, err = e.cache.Do(key, build)
	} else {
		entry, err = build() // resident nowhere: releasing it is a no-op
	}
	if err != nil {
		return Served{}, err
	}
	return Served{Body: entry.Wire, Tails: relTails(entry.Value.([]relOldest), since), entry: entry}, nil
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

// serveScan answers a bare scan through its relation's serving layer.
func serveScan(rv *relView, lo, hi int64, since []wire.RelSince) (Served, error) {
	scan, err := rv.qs.Serve(lo, hi)
	if err != nil {
		return Served{}, err
	}
	sv := Served{Body: scan.Data, scan: scan}
	if scan.Data == nil {
		// No answer cache on this relation: encode for this response only.
		// (With one, the entry's encoding goes to the socket as it is, held
		// by scan until the write is done.)
		if sv.Body, err = wire.AppendCompositeCore(wire.GetBuffer(), &wire.Composite{Outer: scan.Answer.Chain}); err != nil {
			scan.Release()
			return Served{}, err
		}
		sv.own = true
	}
	sv.Tails = relTails([]relOldest{{rv, scan.Answer.OldestSigTS}}, since)
	return sv, nil
}

// relTails encodes one summary tail per touched relation, resuming each
// client from the sequence number it already holds.
func relTails(rels []relOldest, since []wire.RelSince) []byte {
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
	return wire.AppendRelTails(wire.GetBuffer(), out[:len(rels)])
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
	PlanQueries uint64 // plans executed (cache hits not included)
	JoinProbes  uint64 // live point scans against inner relations
	BFProbes    uint64 // outer keys probed through a certified filter
	BFNegatives uint64 // probes answered by a filter negative alone
	BFFallbacks uint64 // false positives that fell back to boundaries
	ProjRows    uint64 // projected rows emitted
	StampShards uint64 // inner data shards stamped, summed over executed join plans
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
	}
	if e.cache != nil {
		s.Cache = e.cache.Stats()
	}
	return s
}
