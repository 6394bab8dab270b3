// Package freshness implements the freshness-verification protocol of
// Section 3.1: every ρ time units the data aggregator publishes a
// certified summary of the record slots updated during the period — the
// paper's update bitmap, sent as the sparse list of its set bits. New
// records and signatures are disseminated immediately, decoupled from
// the summaries; a user confirms a record's freshness by checking that
// no summary published after the record's certification period marks
// its slot.
//
// A record certified several times within one period cannot be pinned to
// its latest version by that period's summary alone; the publisher
// therefore reports such slots for re-certification in the following
// period (§3.1, "Multiple Updates to a Record within the Same ρ-Period"),
// which bounds staleness by 2ρ in that corner case and by ρ otherwise.
package freshness

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// ErrStale is returned when a record is proven out of date.
var ErrStale = errors.New("freshness: record is stale")

// Summary is one certified ρ-period update summary.
type Summary struct {
	Seq         uint64 // period number, starting at 1
	PeriodStart int64  // timestamp of the previous summary
	TS          int64  // publication (certification) timestamp
	Compressed  []byte // the period's marked slots (see appendSlots)
	Sig         sigagg.Signature
}

// Digest is the byte string the data aggregator signs.
func (s *Summary) Digest() digest.Digest {
	w := digest.NewWriter(32 + len(s.Compressed))
	w.PutUint64(s.Seq)
	w.PutInt64(s.PeriodStart)
	w.PutInt64(s.TS)
	w.PutBytes(s.Compressed)
	return w.Sum()
}

// Size is the transmitted summary size — marked slots, header fields
// and signature — with the scheme's signature size pre-resolved, so
// answer-sizing loops look the size up once per scheme instead of once
// per summary.
func (s *Summary) Size(sigSize int) int {
	return len(s.Compressed) + 24 + sigSize
}

// SignFunc produces a signature over a summary digest: the owner's
// signing pool, whose batch primitives also serve record signing, or a
// scheme's Sign bound to a key.
type SignFunc func(digest []byte) (sigagg.Signature, error)

// Publisher is the data-aggregator side: it accumulates the slots the
// current period marks and certifies them on demand.
//
// A Publisher is safe for concurrent use: update marking and
// publication may race freely. It keeps no copy of what it published:
// the summary stream is the query server's (core.QueryServer), which
// serves it to logging-in users.
type Publisher struct {
	mu      sync.Mutex
	sign    SignFunc
	seq     uint64
	lastTS  int64
	slots   uint64      // the summary's length: past every slot ever marked, never lowered
	touched map[int]int // slot -> updates this period; its keys are the period's summary
}

// NewPublisher creates a publisher certifying through sign for a
// relation with numSlots record slots; startTS is the protocol epoch.
func NewPublisher(sign SignFunc, numSlots int, startTS int64) *Publisher {
	return &Publisher{
		sign:    sign,
		lastTS:  startTS,
		slots:   uint64(numSlots),
		touched: make(map[int]int),
	}
}

// MarkUpdated records that slot was inserted, deleted, modified or
// re-certified during the current period. A slot at or past the
// summary's length extends it (appended '1'-bits for inserted records,
// in the paper's bitmap terms).
func (p *Publisher) MarkUpdated(slot int) {
	p.mu.Lock()
	p.touched[slot]++
	p.slots = max(p.slots, uint64(slot)+1)
	p.mu.Unlock()
}

// Publish certifies the current period's marked slots at time ts,
// resets the period, and returns the summary together with the slots
// that were updated more than once (which the caller must re-certify at
// the start of the next period).
func (p *Publisher) Publish(ts int64) (Summary, []int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ts <= p.lastTS {
		return Summary{}, nil, fmt.Errorf("freshness: publish time %d not after previous %d", ts, p.lastTS)
	}
	marked := make([]int, 0, len(p.touched))
	for slot := range p.touched {
		marked = append(marked, slot)
	}
	sort.Ints(marked)
	s := Summary{
		Seq:         p.seq + 1,
		PeriodStart: p.lastTS,
		TS:          ts,
		Compressed:  appendSlots(nil, p.slots, marked),
	}
	d := s.Digest()
	sig, err := p.sign(d[:])
	if err != nil {
		return Summary{}, nil, fmt.Errorf("freshness: certify summary: %w", err)
	}
	s.Sig = sig
	return s, p.endPeriod(s.Seq, ts), nil
}

// endPeriod moves the publisher to period seq, closed at ts, and
// returns the slots the closed period marked more than once, ascending.
// Caller holds mu.
func (p *Publisher) endPeriod(seq uint64, ts int64) []int {
	var multi []int
	for slot, n := range p.touched {
		if n > 1 {
			multi = append(multi, slot)
		}
	}
	sort.Ints(multi)
	p.seq = seq
	p.lastTS = ts
	p.touched = make(map[int]int)
	return multi
}

// PublisherState is a Publisher's serializable period state: everything
// a crash-recovered owner needs to resume publishing mid-period without
// re-contacting anyone. It costs bytes proportional to the slots the
// open period touched.
type PublisherState struct {
	Seq     uint64
	LastTS  int64
	Slots   uint64      // the summary's length
	Touched map[int]int // slot -> updates this period
}

// State snapshots the publisher for durable storage. The returned value
// shares nothing with the publisher: later marks and publications never
// write through it.
func (p *Publisher) State() *PublisherState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &PublisherState{Seq: p.seq, LastTS: p.lastTS, Slots: p.slots, Touched: maps.Clone(p.touched)}
}

// RestoreState replaces the publisher's period state with a snapshot,
// which must be one State could have returned. The signing route is
// untouched: keys and signer wiring belong to the live process, not the
// snapshot.
func (p *Publisher) RestoreState(st *PublisherState) error {
	if st.Slots > maxSlots {
		return fmt.Errorf("freshness: restore %d slots, more than %d", st.Slots, uint64(maxSlots))
	}
	for slot, n := range st.Touched {
		if slot < 0 || uint64(slot) >= st.Slots || n < 1 {
			return fmt.Errorf("freshness: restore slot %d touched %d times in a summary of %d slots", slot, n, st.Slots)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq = st.Seq
	p.lastTS = st.LastTS
	p.slots = st.Slots
	p.touched = make(map[int]int, len(st.Touched))
	maps.Copy(p.touched, st.Touched)
	return nil
}

// ReplaySummary folds an already-certified summary back into the period
// state during crash recovery: the same period reset and multi-update
// report Publish performs, minus the signing (the log carries the
// signature computed before the crash). Replay is idempotent — a
// summary at or below the current sequence is a no-op (applied=false) —
// and a sequence gap is corruption, not a summary to adopt.
func (p *Publisher) ReplaySummary(s Summary) (multi []int, applied bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.Seq <= p.seq {
		return nil, false, nil
	}
	if s.Seq != p.seq+1 {
		return nil, false, fmt.Errorf("freshness: replay summary %d onto sequence %d", s.Seq, p.seq)
	}
	return p.endPeriod(s.Seq, s.TS), true, nil
}

// Checker is the user side: it validates incoming summaries and answers
// freshness checks against them.
//
// Index invariant: newest[slot] is the sequence number of the newest
// summary ever ingested that marks slot (0 = none). Period
// starts rise with the sequence, so that summary has the latest period
// start of any that mark the slot, and "some held summary whose period
// began after recTS marks the slot" is one comparison. Trim leaves the
// index alone: when the newest summary to mark a slot has been dropped,
// no summary still held marks it, and CheckFresh passes over the entry.
type Checker struct {
	scheme sigagg.Scheme
	pub    sigagg.PublicKey
	sums   []Summary
	newest []uint64 // per slot, see the index invariant
}

// NewChecker creates a checker trusting the data aggregator's public
// key.
func NewChecker(scheme sigagg.Scheme, pub sigagg.PublicKey) *Checker {
	return &Checker{scheme: scheme, pub: pub}
}

// Add validates and ingests a summary. Summaries must arrive in
// sequence-contiguous order (the server supplies the back history on
// log-in, then one summary per period).
func (c *Checker) Add(s Summary) error {
	d := s.Digest()
	if err := c.scheme.Verify(c.pub, d[:], s.Sig); err != nil {
		return fmt.Errorf("freshness: summary %d signature: %w", s.Seq, err)
	}
	// What the index invariant rests on; no Publisher emits otherwise.
	if s.Seq == 0 || s.PeriodStart > s.TS {
		return fmt.Errorf("freshness: summary %d covers [%d, %d): not a period", s.Seq, s.PeriodStart, s.TS)
	}
	if len(c.sums) > 0 {
		last := c.sums[len(c.sums)-1]
		if s.Seq != last.Seq+1 {
			return fmt.Errorf("freshness: summary gap: have seq %d, got %d", last.Seq, s.Seq)
		}
		if s.PeriodStart != last.TS {
			return fmt.Errorf("freshness: summary %d period start %d does not chain to %d",
				s.Seq, s.PeriodStart, last.TS)
		}
	}
	_, marked, err := decodeSlots(s.Compressed) // ascending
	if err != nil {
		return fmt.Errorf("freshness: summary %d: %w", s.Seq, err)
	}
	c.sums = append(c.sums, s)
	if n := len(marked); n > 0 && marked[n-1] >= len(c.newest) {
		c.newest = append(c.newest, make([]uint64, marked[n-1]+1-len(c.newest))...)
	}
	for _, slot := range marked {
		c.newest[slot] = s.Seq
	}
	return nil
}

// Len returns the number of ingested summaries.
func (c *Checker) Len() int { return len(c.sums) }

// Latest returns the most recent summary.
func (c *Checker) Latest() (Summary, bool) {
	if len(c.sums) == 0 {
		return Summary{}, false
	}
	return c.sums[len(c.sums)-1], true
}

// BySeq returns the held summary with the given sequence number. Held
// summaries are sequence-contiguous (Add enforces it), so this is an
// index lookup.
func (c *Checker) BySeq(seq uint64) (Summary, bool) {
	if len(c.sums) == 0 {
		return Summary{}, false
	}
	first := c.sums[0].Seq
	if seq < first || seq > c.sums[len(c.sums)-1].Seq {
		return Summary{}, false
	}
	return c.sums[seq-first], true
}

// Trim drops summaries published before ts (once no record signature
// can be that old, per the ρ' renewal policy).
func (c *Checker) Trim(ts int64) {
	i := sort.Search(len(c.sums), func(i int) bool { return c.sums[i].TS >= ts })
	c.sums = c.sums[i:]
}

// CheckFresh verifies the freshness of the record in the given slot,
// whose signature carries certification time recTS, at current time now
// with summary period rho. On success it returns the worst-case
// staleness bound (ρ normally; 2ρ when the record was certified in the
// most recent closed period, per §3.1). It returns ErrStale when a
// summary proves a newer version exists, and a generic error when the
// checker lacks the summaries needed to decide.
func (c *Checker) CheckFresh(slot int, recTS int64, now int64, rho int64) (int64, error) {
	if len(c.sums) == 0 {
		return rho, nil
	}
	latest := &c.sums[len(c.sums)-1]
	if recTS >= latest.TS {
		// Certified in the open period, after every summary: fresh by
		// construction, worst case out of date by now - recTS < ρ.
		return rho, nil
	}
	if recTS < c.sums[0].PeriodStart {
		return 0, fmt.Errorf("freshness: record certified at %d predates available summaries (from %d)",
			recTS, c.sums[0].PeriodStart)
	}
	// A summary covers [PeriodStart, TS): a version certified at a close's
	// TS belongs to the period that close opens. The record is stale iff
	// some summary whose period began strictly after the record's
	// certification marks the slot: the mark then refers to a strictly
	// newer version. A mark in the record's own certification period
	// (recTS >= PeriodStart) is the record itself.
	// The newest summary marking the slot decides for all of them (see
	// the index invariant).
	if slot >= 0 && slot < len(c.newest) {
		// Unsigned: a summary Trim dropped lies below sums[0].Seq and
		// wraps out of range, as does 0, "never marked".
		if i := c.newest[slot] - c.sums[0].Seq; i < uint64(len(c.sums)) && recTS < c.sums[i].PeriodStart {
			return 0, fmt.Errorf("%w: slot %d re-certified during period ending %d (record signed %d)",
				ErrStale, slot, c.sums[i].TS, recTS)
		}
	}
	// Fresh. Records certified in the most recent closed period could
	// have been superseded within that same period; the re-certification
	// rule only surfaces that in the next summary, so the bound is 2ρ.
	if recTS >= latest.PeriodStart {
		return 2 * rho, nil
	}
	return rho, nil
}
