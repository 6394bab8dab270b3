// The query protocol's messages: the plan request ('P'), the composite
// verifiable-object answer ('C'), and the relation-scoped summary
// request ('T'). Every query is a plan — a range selection is the plan
// with no projection and no join, and its answer the composite with no
// operator sections — so these are the only request and the only answer a
// listener speaks.
//
// A 'C' message splits into a cacheable core — the plan's proof objects,
// whose bytes depend only on the touched data — and per-client relation
// tails (certified-summary deltas) appended at response time, so a
// cached core stays valid across ρ-period closes on every relation the
// plan touched. The core of a bare scan is `V 'C' body flags=0`.
//
// Held answers. A 'P' request may end in the 64-bit CoreDigest of an
// answer core the client already holds and has verified:
//
//	V 'P' plan rels [digest]
//
// The digest is present exactly when eight bytes follow the summary
// positions, and it is never 0. A server whose current core for the plan
// has that digest may answer with the "unchanged" form of 'C', whose core
// is the header and the inverted full range in place of an answer body —
// a range no plan can ask for, since a plan's range has Lo ≤ Hi — followed
// by the usual tails:
//
//	V 'C' i64(MaxInt64) i64(MinInt64) tails
//
// DecodeComposite reads it as a Composite with Unchanged set and no
// sections. The client holds the server to nothing it says here: it
// re-checks the held answer's records against the tails (DESIGN.md,
// "Held answers"), and a digest collision only means an answer the
// client holds, still fresh by those checks, is returned in place of an
// equally fresh one.
package wire

import (
	"fmt"
	"hash/crc32"
	"math"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

// A plan names at most two relations (the scanned one and a join's
// inner), so a request carries at most that many summary positions and
// an answer that many tails; a relation name is as long as the planner
// allows (query's maxRelName). Both are checked before a hostile peer's
// counts or lengths size anything.
const (
	maxPlanRels = 2
	maxRelName  = 256
)

// relName reads a relation name as a view of the message, refusing one
// no planner would accept before a string is made of it.
func (r *reader) relName() ([]byte, error) {
	name, err := r.view()
	if err != nil {
		return nil, err
	}
	if len(name) == 0 || len(name) > maxRelName {
		return nil, fmt.Errorf("%w: relation name of %d bytes", ErrCorrupt, len(name))
	}
	return name, nil
}

// RelSince names a relation the client holds certified summaries for,
// through SinceSeq (0 = cold session).
type RelSince struct {
	Name     string
	SinceSeq uint64
}

// AppendPlanReq appends a plan request: the planner's canonical plan
// encoding, the client's summary position in each relation the plan
// names, and — when held is not 0 — the CoreDigest of the answer core the
// client holds for the plan.
func AppendPlanReq(buf []byte, plan []byte, rels []RelSince, held uint64) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindPlan)
	w.bytes(plan)
	w.u64(uint64(len(rels)))
	for _, rs := range rels {
		w.bytes([]byte(rs.Name))
		w.u64(rs.SinceSeq)
	}
	if held != 0 {
		w.u64(held)
	}
	return w.buf
}

// DecodePlanReq parses a plan request, appending the summary positions to
// rels (a server passes a two-entry array of its own: nothing then sizes
// with the request), and returns the held answer's digest (0 = none). The
// plan bytes alias data. The engine (query.Engine.Serve) reads them — a
// bare selection in place, any other plan through query.UnmarshalPlan —
// keys its answer cache on a copy of them, holds the positions against
// the relations the plan names, and compares the digest with its current
// answer's.
func DecodePlanReq(data []byte, rels []RelSince) (plan []byte, _ []RelSince, held uint64, err error) {
	r := &reader{buf: data, alias: true}
	if err := header(r, KindPlan); err != nil {
		return nil, nil, 0, err
	}
	if plan, err = r.bytes(); err != nil {
		return nil, nil, 0, err
	}
	n, err := r.u64()
	if err != nil {
		return nil, nil, 0, err
	}
	if n > maxPlanRels {
		return nil, nil, 0, fmt.Errorf("%w: summary positions for %d relations", ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		name, err := r.relName()
		if err != nil {
			return nil, nil, 0, err
		}
		seq, err := r.u64()
		if err != nil {
			return nil, nil, 0, err
		}
		rels = append(rels, RelSince{Name: string(name), SinceSeq: seq})
	}
	if r.remaining() > 0 {
		if held, err = r.u64(); err != nil {
			return nil, nil, 0, err
		}
		if held == 0 {
			return nil, nil, 0, fmt.Errorf("%w: zero held-answer digest", ErrCorrupt)
		}
	}
	if err := r.done(); err != nil {
		return nil, nil, 0, err
	}
	return plan, rels, held, nil
}

// CoreDigest names an answer core — the bytes AppendCompositeCore wrote —
// for a plan request's held-answer field: CRC-32C and CRC-32 (IEEE), both
// hardware-assisted, side by side, and never 0. It is a change detector,
// not a commitment: nothing the client accepts rests on it (see the file
// comment).
func CoreDigest(core []byte) uint64 {
	d := uint64(crc32.Checksum(core, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(core))
	if d == 0 {
		d = 1
	}
	return d
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The unchanged form's stand-in for an answer body's range (see the file
// comment).
const (
	unchangedLo = math.MaxInt64
	unchangedHi = math.MinInt64
)

// RelTail is one relation's certified-summary delta in a composite
// answer.
type RelTail struct {
	Rel       string
	Summaries []freshness.Summary
}

// Composite is the verifiable object of one select-project-join plan:
// the outer relation's chained scan answer, the optional projection
// section (§3.4) and join section (§3.5), plus per-relation summary
// tails for freshness.
type Composite struct {
	Outer *chain.Answer
	Proj  *projection.Answer
	Join  *join.Answer
	Tails []RelTail
	// Unchanged marks the "unchanged" form: the server says the answer the
	// request named by its digest still stands, and sends only the tails.
	// Such a composite carries no section.
	Unchanged bool
	// Bytes is what each section of a decoded frame took; the encoders
	// ignore it.
	Bytes SectionBytes
	// Staleness is the outer scan's staleness bound (ρ, or 2ρ for a
	// record certified in the most recent closed period), written by the
	// verifying client once the answer has passed; the encoders ignore it.
	Staleness int64
}

// SectionBytes is how many bytes of a 'C' frame each section took, as
// DecodeComposite found them; they add up to the frame. Outer counts the
// frame's version, kind and flags bytes with the outer chain.
type SectionBytes struct {
	Outer, Proj, Join, Tails int
}

const (
	compFlagProj = 1 << 0
	compFlagJoin = 1 << 1
)

// AppendCompositeCore appends the cacheable prefix of a composite
// answer: everything except the per-relation summary tails. Core bytes
// followed by AppendRelTails bytes form one complete 'C' message.
func AppendCompositeCore(buf []byte, c *Composite) ([]byte, error) {
	if c != nil && c.Unchanged {
		return AppendUnchanged(buf), nil
	}
	if c == nil || c.Outer == nil {
		return nil, fmt.Errorf("wire: nil composite answer")
	}
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindComposite)
	putAnswerBody(w, c.Outer)
	var flags byte
	if c.Proj != nil {
		flags |= compFlagProj
	}
	if c.Join != nil {
		flags |= compFlagJoin
	}
	w.u8(flags)
	if c.Proj != nil {
		if err := putProjection(w, c.Proj, c.Outer); err != nil {
			return nil, err
		}
	}
	if c.Join != nil {
		if err := putJoin(w, c.Join); err != nil {
			return nil, err
		}
	}
	return w.buf, nil
}

// AppendUnchanged appends the core of the "unchanged" form of 'C'; the
// tails follow it as they follow any core.
func AppendUnchanged(buf []byte) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindComposite)
	w.i64(unchangedLo)
	w.i64(unchangedHi)
	return w.buf
}

// AppendRelTails appends the per-relation summary sections.
func AppendRelTails(buf []byte, tails []RelTail) []byte {
	w := &writer{buf: buf}
	w.u64(uint64(len(tails)))
	for _, t := range tails {
		w.bytes([]byte(t.Rel))
		w.u64(uint64(len(t.Summaries)))
		for i := range t.Summaries {
			putSummary(w, &t.Summaries[i])
		}
	}
	return w.buf
}

// DecodeComposite parses a complete 'C' message (core plus tails), the
// "unchanged" form included. The proof objects alias data, which belongs
// to the result from here on; the summaries in the tails are copies,
// because a session keeps them. names are relation names the caller
// already holds: a tail named like one of them reuses that string instead
// of allocating its own.
func DecodeComposite(data []byte, names ...string) (*Composite, error) {
	r := &reader{buf: data, alias: true}
	if err := header(r, KindComposite); err != nil {
		return nil, err
	}
	// The composite and the array its tails live in are one allocation.
	d := &struct {
		Composite
		tails [maxPlanRels]RelTail
	}{}
	c := &d.Composite
	if peek := (reader{buf: r.buf, off: r.off}); isUnchanged(&peek) {
		r.off = peek.off
		c.Unchanged = true
		c.Bytes.Outer = r.off
	} else if err := getSections(r, c); err != nil {
		return nil, err
	}
	c.Bytes.Tails = r.remaining()
	nTails, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nTails > maxPlanRels {
		return nil, fmt.Errorf("%w: tail count %d", ErrCorrupt, nTails)
	}
	if nTails > 0 {
		c.Tails = d.tails[:nTails:nTails]
	}
	for i := range c.Tails {
		t := &c.Tails[i]
		name, err := r.relName()
		if err != nil {
			return nil, err
		}
		for _, known := range names {
			if string(name) == known {
				t.Rel = known
				break
			}
		}
		if t.Rel == "" {
			t.Rel = string(name)
		}
		nSums, err := r.u64()
		if err != nil {
			return nil, err
		}
		if nSums > maxLen {
			return nil, fmt.Errorf("%w: summary count %d", ErrCorrupt, nSums)
		}
		for j := uint64(0); j < nSums; j++ {
			s, err := getSummary(r)
			if err != nil {
				return nil, err
			}
			t.Summaries = append(t.Summaries, s)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// isUnchanged reads the unchanged form's inverted range, reporting
// whether that is what r held.
func isUnchanged(r *reader) bool {
	lo, err := r.i64()
	if err != nil || lo != unchangedLo {
		return false
	}
	hi, err := r.i64()
	return err == nil && hi == unchangedHi
}

// getSections decodes a full core's sections into c: the outer chain,
// the flags, and the projection and join sections they announce.
func getSections(r *reader, c *Composite) error {
	var err error
	if c.Outer, err = getAnswerBody(r); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	if flags&^(compFlagProj|compFlagJoin) != 0 {
		return fmt.Errorf("%w: bad composite flags %#x", ErrCorrupt, flags)
	}
	c.Bytes.Outer = r.off
	if flags&compFlagProj != 0 {
		if c.Proj, err = getProjection(r, c.Outer); err != nil {
			return err
		}
	}
	mark := r.off
	c.Bytes.Proj = mark - c.Bytes.Outer
	if flags&compFlagJoin != 0 {
		if c.Join, err = getJoin(r); err != nil {
			return err
		}
	}
	c.Bytes.Join = r.off - mark
	return nil
}

// ---- projection section (§3.4) ----

// The section is the attribute slots, then for each record of the outer
// chain, in chain order, exactly one length-prefixed value per slot, then
// the aggregate. A row names no record: the chain's records already
// disclose and authenticate every rid and ts an attribute digest binds,
// so row i is outer.Records[i] by position and a frame cannot express a
// row that names another record.

func putProjection(w *writer, p *projection.Answer, outer *chain.Answer) error {
	if len(p.Rows) != len(outer.Records) {
		return fmt.Errorf("wire: %d projected rows for %d chained records", len(p.Rows), len(outer.Records))
	}
	w.u64(uint64(len(p.AttrIdxs)))
	for _, idx := range p.AttrIdxs {
		w.u64(uint64(idx))
	}
	for i, rec := range outer.Records {
		row := &p.Rows[i]
		if row.RID != rec.RID || row.TS != rec.TS || len(row.Values) != len(p.AttrIdxs) {
			return fmt.Errorf("wire: projected row %d (rid %d, ts %d, %d values) is not chained record %d (rid %d, ts %d) over %d slots",
				i, row.RID, row.TS, len(row.Values), i, rec.RID, rec.TS, len(p.AttrIdxs))
		}
		for _, v := range row.Values {
			w.bytes(v)
		}
	}
	w.bytes(p.Agg)
	return nil
}

// getProjection decodes the section whose rows are outer's records.
func getProjection(r *reader, outer *chain.Answer) (*projection.Answer, error) {
	// An index and a value's length prefix are eight bytes each, so the
	// bytes present bound the slots, and rows × slots, before either sizes
	// anything.
	nIdx, err := r.count(8)
	if err != nil {
		return nil, err
	}
	p := &projection.Answer{}
	if nIdx > 0 {
		p.AttrIdxs = make([]int, nIdx)
	}
	for i := range p.AttrIdxs {
		idx, _ := r.u64() // present: count checked the bytes
		if idx > maxLen {
			return nil, fmt.Errorf("%w: attr index %d", ErrCorrupt, idx)
		}
		p.AttrIdxs[i] = int(idx)
	}
	nRows := len(outer.Records)
	if nIdx > 0 && nRows > r.remaining()/8/nIdx {
		return nil, fmt.Errorf("%w: %d rows of %d values in %d bytes", ErrCorrupt, nRows, nIdx, r.remaining())
	}
	if nRows > 0 {
		p.Rows = make([]projection.Row, nRows)
	}
	var vals [][]byte // every row's values, row-major
	if nRows*nIdx > 0 {
		vals = make([][]byte, nRows*nIdx)
	}
	for i, rec := range outer.Records {
		row := &p.Rows[i]
		row.RID, row.TS = rec.RID, rec.TS
		row.Values = vals[i*nIdx : (i+1)*nIdx : (i+1)*nIdx]
		for j := range row.Values {
			if row.Values[j], err = r.bytes(); err != nil {
				return nil, err
			}
		}
	}
	agg, err := r.bytes()
	if err != nil {
		return nil, err
	}
	p.Agg = sigagg.Signature(agg)
	return p, nil
}

// ---- join section (§3.5) ----

// The section is the method, the filter's certification time (zero
// without negatives), the runs — each an ordinary answer body — and the
// Bloom negatives grouped per partition: bounds, filter and certification
// once, then the keys that partition answers.

func putJoin(w *writer, j *join.Answer) error {
	w.u8(byte(j.Method))
	w.i64(j.FilterTS)
	w.u64(uint64(len(j.Runs)))
	for _, run := range j.Runs {
		if run == nil {
			return fmt.Errorf("wire: nil run in a join section")
		}
		putAnswerBody(w, run)
	}
	w.u64(uint64(len(j.Negatives)))
	for i := range j.Negatives {
		g := &j.Negatives[i]
		if g.Partition == nil || g.Partition.Filter == nil {
			return fmt.Errorf("wire: Bloom negatives %d of %d carry no partition", i+1, len(j.Negatives))
		}
		putPartition(w, g.Partition, g.PartSig)
		w.u64(uint64(len(g.Keys)))
		for _, k := range g.Keys {
			w.i64(k)
		}
	}
	return nil
}

// putPartition encodes one certified partition of a relation's Bloom
// filter — bounds, filter, the owner's certification — as a join section
// lists it beside the keys it answers and a dissemination message
// (AppendUpdateMsg) carries the whole filter.
func putPartition(w *writer, p *bloom.Partition, sig sigagg.Signature) {
	w.i64(p.Lo)
	w.i64(p.Hi)
	w.bytes(p.Filter.Marshal())
	w.bytes(sig)
}

// getPartition decodes into p what putPartition wrote; the signature
// follows the reader's custody.
func getPartition(r *reader, p *bloom.Partition) (sigagg.Signature, error) {
	var err error
	if p.Lo, err = r.i64(); err != nil {
		return nil, err
	}
	if p.Hi, err = r.i64(); err != nil {
		return nil, err
	}
	fb, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if p.Filter, err = bloom.Unmarshal(fb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sig, err := r.bytes()
	return sigagg.Signature(sig), err
}

func getJoin(r *reader) (*join.Answer, error) {
	j := &join.Answer{}
	m, err := r.u8()
	if err != nil {
		return nil, err
	}
	j.Method = join.Method(m)
	if j.FilterTS, err = r.i64(); err != nil {
		return nil, err
	}
	nRuns, err := r.u64()
	if err != nil {
		return nil, err
	}
	// A run is at least an answer body's 65 fixed bytes, a partition its
	// bounds and three length prefixes, a key its eight bytes: each count
	// is bounded by the bytes left before it sizes anything.
	if nRuns > uint64(r.remaining()/65) {
		return nil, fmt.Errorf("%w: run count %d in %d bytes", ErrCorrupt, nRuns, r.remaining())
	}
	if nRuns > 0 {
		j.Runs = make([]*chain.Answer, nRuns)
	}
	for i := range j.Runs {
		if j.Runs[i], err = getAnswerBody(r); err != nil {
			return nil, err
		}
	}
	nParts, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nParts > uint64(r.remaining()/40) {
		return nil, fmt.Errorf("%w: partition count %d in %d bytes", ErrCorrupt, nParts, r.remaining())
	}
	if nParts > 0 {
		j.Negatives = make([]join.Negatives, nParts)
	}
	for i := range j.Negatives {
		g := &j.Negatives[i]
		g.Partition = &bloom.Partition{}
		if g.PartSig, err = getPartition(r, g.Partition); err != nil {
			return nil, err
		}
		nKeys, err := r.u64()
		if err != nil {
			return nil, err
		}
		if nKeys > uint64(r.remaining()/8) {
			return nil, fmt.Errorf("%w: key count %d in %d bytes", ErrCorrupt, nKeys, r.remaining())
		}
		if nKeys > 0 {
			g.Keys = make([]int64, nKeys)
		}
		for k := range g.Keys {
			if g.Keys[k], err = r.i64(); err != nil {
				return nil, err
			}
		}
	}
	return j, nil
}

// ---- relation-scoped summaries ('T') ----

// AppendRelSumsReq appends a request for one relation's certified
// summaries: those after sequence number sinceSeq, or — when sinceSeq is
// 0 — those published at or after oldestTS (the log-in back-history
// fetch of §3.1). The response is an 'F' summaries frame, capped by the
// server, so a session pages by asking again from the newest it holds.
func AppendRelSumsReq(buf []byte, rel string, sinceSeq uint64, oldestTS int64) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindRelSummaries)
	w.bytes([]byte(rel))
	w.u64(sinceSeq)
	w.i64(oldestTS)
	return w.buf
}

// DecodeRelSumsReq parses a 'T' request.
func DecodeRelSumsReq(data []byte) (rel string, sinceSeq uint64, oldestTS int64, err error) {
	r := &reader{buf: data}
	if err = header(r, KindRelSummaries); err != nil {
		return "", 0, 0, err
	}
	name, err := r.relName()
	if err != nil {
		return "", 0, 0, err
	}
	if sinceSeq, err = r.u64(); err != nil {
		return "", 0, 0, err
	}
	if oldestTS, err = r.i64(); err != nil {
		return "", 0, 0, err
	}
	if err = r.done(); err != nil {
		return "", 0, 0, err
	}
	return string(name), sinceSeq, oldestTS, nil
}
