package freshness

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"slices"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

func newPair(t *testing.T, slots int) (*Publisher, *Checker) {
	t.Helper()
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return NewPublisher(signer(scheme, priv), slots, 0), NewChecker(scheme, pub)
}

// signer certifies summaries with scheme.Sign under priv.
func signer(scheme sigagg.Scheme, priv sigagg.PrivateKey) SignFunc {
	return func(d []byte) (sigagg.Signature, error) { return scheme.Sign(priv, d) }
}

// publish closes p's period at ts: the summary Next certifies, folded in
// by ReplaySummary, as the owner commits a close.
func publish(p *Publisher, ts int64) (Summary, []int, error) {
	s, multi, err := p.Next(ts)
	if err != nil {
		return Summary{}, nil, err
	}
	if _, _, err := p.ReplaySummary(s); err != nil {
		return Summary{}, nil, err
	}
	return s, multi, nil
}

func feed(t *testing.T, p *Publisher, c *Checker, ts int64) (Summary, []int) {
	t.Helper()
	s, multi, err := publish(p, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(s); err != nil {
		t.Fatal(err)
	}
	return s, multi
}

func TestFreshRecordNewerThanSummaries(t *testing.T) {
	p, c := newPair(t, 100)
	feed(t, p, c, 10)
	// Record certified after the latest summary: fresh, bound ρ.
	bound, err := c.CheckFresh(5, 15, 18, 10)
	if err != nil || bound != 10 {
		t.Fatalf("bound=%d err=%v", bound, err)
	}
}

func TestFreshRecordNoSummaries(t *testing.T) {
	_, c := newPair(t, 10)
	if _, err := c.CheckFresh(0, 5, 6, 10); err != nil {
		t.Fatalf("no summaries yet: %v", err)
	}
}

func TestStaleRecordDetected(t *testing.T) {
	p, c := newPair(t, 100)
	// Period 1 (0,10]: record 7 certified at t=5.
	p.MarkUpdated(7)
	feed(t, p, c, 10)
	// Period 2 (10,20]: record 7 updated again at t=15.
	p.MarkUpdated(7)
	feed(t, p, c, 20)
	// A user receiving the t=5 version must detect staleness.
	_, err := c.CheckFresh(7, 5, 25, 10)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("want ErrStale, got %v", err)
	}
	// The t=15 version is fine (2ρ bound: most recent closed period).
	bound, err := c.CheckFresh(7, 15, 25, 10)
	if err != nil {
		t.Fatalf("fresh version flagged: %v", err)
	}
	if bound != 20 {
		t.Fatalf("bound=%d, want 2ρ=20", bound)
	}
}

func TestOwnPeriodMarkIsNotStale(t *testing.T) {
	p, c := newPair(t, 100)
	// The summary of the record's own certification period marks the
	// slot; that mark refers to the record itself.
	p.MarkUpdated(3)
	feed(t, p, c, 10)
	if _, err := c.CheckFresh(3, 5, 12, 10); err != nil {
		t.Fatalf("own-period mark treated as stale: %v", err)
	}
}

func TestUntouchedOldRecordIsFresh(t *testing.T) {
	p, c := newPair(t, 100)
	feed(t, p, c, 10)
	for ts := int64(20); ts <= 100; ts += 10 {
		p.MarkUpdated(int(ts) % 7) // noise on other slots... slot 50 untouched
		if int(ts)%7 == 50 {
			t.Fatal("test setup broken")
		}
		feed(t, p, c, ts)
	}
	bound, err := c.CheckFresh(50, 5, 105, 10)
	if err != nil {
		t.Fatalf("untouched record flagged: %v", err)
	}
	if bound != 10 {
		t.Fatalf("bound=%d, want ρ", bound)
	}
}

func TestMultiUpdateReported(t *testing.T) {
	p, c := newPair(t, 100)
	p.MarkUpdated(4)
	p.MarkUpdated(4)
	p.MarkUpdated(9)
	_, multi := feed(t, p, c, 10)
	if len(multi) != 1 || multi[0] != 4 {
		t.Fatalf("multi = %v, want [4]", multi)
	}
	// Re-certifying slot 4 in the next period invalidates both earlier
	// versions.
	p.MarkUpdated(4)
	feed(t, p, c, 20)
	if _, err := c.CheckFresh(4, 3, 25, 10); !errors.Is(err, ErrStale) {
		t.Fatal("pre-re-cert version must be stale")
	}
	if _, err := c.CheckFresh(4, 15, 25, 10); err != nil {
		t.Fatalf("re-certified version flagged: %v", err)
	}
}

func TestSummarySignatureChecked(t *testing.T) {
	p, c := newPair(t, 10)
	s, _, err := publish(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.TS = 11 // tamper after signing
	if err := c.Add(s); err == nil {
		t.Fatal("tampered summary accepted")
	}
}

func TestSummaryGapRejected(t *testing.T) {
	p, c := newPair(t, 10)
	feed(t, p, c, 10)
	skipped, _, err := publish(p, 20)
	_ = skipped
	if err != nil {
		t.Fatal(err)
	}
	s3, _, err := publish(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(s3); err == nil {
		t.Fatal("summary gap accepted")
	}
}

func TestPublishMonotoneTime(t *testing.T) {
	p, _ := newPair(t, 10)
	if _, _, err := p.Next(0); err == nil {
		t.Fatal("non-monotone publish accepted")
	}
}

// TestNextChangesNothing: Next certifies the summary that would close
// the period and leaves the period open, whether it signs or fails to;
// only ReplaySummary ends the period, so the sequence has no gap.
func TestNextChangesNothing(t *testing.T) {
	p, c := newPair(t, 16)
	p.MarkUpdated(2)
	p.MarkUpdated(2)
	p.MarkUpdated(9)
	before := p.State()
	sign := p.sign
	p.sign = func([]byte) (sigagg.Signature, error) { return nil, errors.New("signer down") }
	if _, _, err := p.Next(10); err == nil {
		t.Fatal("a failed signature published a summary")
	}
	p.sign = sign
	s, multi, err := p.Next(10)
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := p.Next(10); again.Digest() != s.Digest() {
		t.Fatal("a second Next at one ts certified another summary")
	}
	if st := p.State(); !reflect.DeepEqual(st, before) {
		t.Fatalf("Next moved the publisher from %+v to %+v", before, st)
	}
	if s.Seq != 1 || !slices.Equal(multi, []int{2}) {
		t.Fatalf("Next certified seq %d with multi %v, want 1 and [2]", s.Seq, multi)
	}
	if _, applied, err := p.ReplaySummary(s); err != nil || !applied {
		t.Fatalf("ReplaySummary applied=%v: %v", applied, err)
	}
	if err := c.Add(s); err != nil {
		t.Fatal(err)
	}
	feed(t, p, c, 20) // seq 2 follows without a gap
}

func TestInsertGrowsBitmap(t *testing.T) {
	p, c := newPair(t, 10)
	p.MarkUpdated(25) // inserted record beyond initial slots
	s, _ := feed(t, p, c, 10)
	if s.Seq != 1 {
		t.Fatal("bad seq")
	}
	// The new record certified at t=5 in its own period: fresh.
	if _, err := c.CheckFresh(25, 5, 12, 10); err != nil {
		t.Fatalf("inserted record flagged: %v", err)
	}
}

func TestMarkPastLengthGrowsSlots(t *testing.T) {
	// Marking a slot past the summary's length (a record inserted after
	// the publisher started) extends the length to that slot + 1, and
	// the length stays there once the period is over.
	p, c := newPair(t, 10)
	p.MarkUpdated(1000)
	s1, _ := feed(t, p, c, 10)
	s2, _ := feed(t, p, c, 20)
	for _, s := range []Summary{s1, s2} {
		if n, _, err := decodeSlots(s.Compressed); err != nil || n != 1001 {
			t.Fatalf("summary %d has length %d (%v), want 1001", s.Seq, n, err)
		}
	}
	if _, got, _ := decodeSlots(s1.Compressed); !slices.Equal(got, []int{1000}) {
		t.Fatalf("grown slot not marked: %v", got)
	}
}

func TestPublishListsMarksAscending(t *testing.T) {
	// A summary lists the period's marked slots in ascending order,
	// whatever order they were marked in, each once.
	p, c := newPair(t, 200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range []int{128, 3, 199, 65, 64, 127, 3} {
		p.MarkUpdated(i)
	}
	s, _ := feed(t, p, c, 10)
	n, got, err := decodeSlots(s.Compressed)
	if err != nil || n != 200 || !slices.Equal(got, want) {
		t.Fatalf("summary of %d slots marks %v (%v), want 200 marking %v", n, got, err, want)
	}
}

func TestSummarySizeProportionalToUpdates(t *testing.T) {
	// §3.1: summary size tracks the update count, not the database size.
	pSmall, _ := newPair(t, 1000)
	pBig, _ := newPair(t, 1_000_000)
	for i := 0; i < 100; i++ {
		pSmall.MarkUpdated(i * 7)
		pBig.MarkUpdated(i * 7000)
	}
	sSmall, _, _ := publish(pSmall, 10)
	sBig, _, _ := publish(pBig, 10)
	if len(sBig.Compressed) > 4*len(sSmall.Compressed) {
		t.Fatalf("summary grows with DB size: %d vs %d bytes",
			len(sBig.Compressed), len(sSmall.Compressed))
	}
}

func TestRecordPredatingSummariesUndecidable(t *testing.T) {
	p, c := newPair(t, 10)
	// History starts at period (100, 110]; drop everything before.
	pp := p
	pp.lastTS = 100
	feed(t, pp, c, 110)
	if _, err := c.CheckFresh(0, 50, 115, 10); err == nil {
		t.Fatal("record older than history must be undecidable")
	}
}

func TestTrim(t *testing.T) {
	p, c := newPair(t, 10)
	for ts := int64(10); ts <= 50; ts += 10 {
		feed(t, p, c, ts)
	}
	c.Trim(30)
	if c.Len() != 3 {
		t.Fatalf("Len after Trim = %d, want 3", c.Len())
	}
}

// TestPublisherStateRoundtrip: a restored publisher resumes mid-period
// with the same marks and touch counts as the original.
func TestPublisherStateRoundtrip(t *testing.T) {
	p, c := newPair(t, 32)
	p.MarkUpdated(3)
	p.MarkUpdated(3)
	p.MarkUpdated(7)
	feed(t, p, c, 10)
	p.MarkUpdated(5)
	p.MarkUpdated(5) // multi this (open) period
	p.MarkUpdated(9)

	st := p.State()
	p2, _ := newPair(t, 1) // wrong shape on purpose: restore must replace it
	if err := p2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if n := len(p2.State().Touched); n != 2 {
		t.Fatalf("restored pending slots %d, want 2", n)
	}
	// Publishing from original and restored must report the same multis
	// and mark the same slots. (Signatures differ: different keys.)
	s1, m1, err := publish(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	s2, m2, err := publish(p2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Seq != s2.Seq || s1.PeriodStart != s2.PeriodStart || string(s1.Compressed) != string(s2.Compressed) {
		t.Fatalf("restored publisher published %+v, want %+v", s2, s1)
	}
	if len(m1) != 1 || len(m2) != 1 || m1[0] != 5 || m2[0] != 5 {
		t.Fatalf("multi reports diverged: %v vs %v", m1, m2)
	}
}

// TestRestoreStateRefusesDisagreement: a snapshot whose touched slots
// do not fit its summary's length, or that counts a touch of none, is
// not a state State could have returned.
func TestRestoreStateRefusesDisagreement(t *testing.T) {
	p, _ := newPair(t, 8)
	for _, st := range []*PublisherState{
		{Slots: 8, Touched: map[int]int{8: 1}},
		{Slots: 8, Touched: map[int]int{-1: 1}},
		{Slots: 8, Touched: map[int]int{3: 0}},
		{Slots: maxSlots + 1},
	} {
		if err := p.RestoreState(st); err == nil {
			t.Fatalf("restored %+v", st)
		}
	}
	if st := p.State(); st.Slots != 8 || len(st.Touched) != 0 {
		t.Fatalf("a refused restore left %+v", st)
	}
}

// TestReplaySummaryIdempotent: replay applies a logged summary exactly
// once, rejects gaps, and reproduces the period reset of a live close.
func TestReplaySummaryIdempotent(t *testing.T) {
	p, _ := newPair(t, 16)
	p.MarkUpdated(2)
	p.MarkUpdated(2)
	s, multiPub, err := publish(p, 10)
	if err != nil {
		t.Fatal(err)
	}

	r, _ := newPair(t, 16)
	r.MarkUpdated(2)
	r.MarkUpdated(2)
	multi, applied, err := r.ReplaySummary(s)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || len(multi) != 1 || multi[0] != 2 || len(multiPub) != 1 {
		t.Fatalf("replay applied=%v multi=%v, want the publish outcome %v", applied, multi, multiPub)
	}
	if len(r.State().Touched) != 0 {
		t.Fatal("replay did not reset the period")
	}
	// Second delivery: no-op.
	if _, applied, err := r.ReplaySummary(s); err != nil || applied {
		t.Fatalf("re-replay applied=%v err=%v, want idempotent no-op", applied, err)
	}
	if st := r.State(); st.Seq != 1 || st.LastTS != s.TS {
		t.Fatalf("re-replay moved the publisher to seq %d at %d, want 1 at %d", st.Seq, st.LastTS, s.TS)
	}
	// A gap is corruption, not data.
	gap := s
	gap.Seq = 5
	if _, _, err := r.ReplaySummary(gap); err == nil {
		t.Fatal("sequence gap replayed silently")
	}
}

// scanFresh is the linear scan CheckFresh ran before the per-slot index:
// every held summary is consulted for every record. It is the reference
// the index is held to.
func scanFresh(sums []Summary, marks [][]int, slot int, recTS, rho int64) (int64, error) {
	if len(sums) == 0 || recTS >= sums[len(sums)-1].TS {
		return rho, nil
	}
	if recTS < sums[0].PeriodStart {
		return 0, fmt.Errorf("freshness: record certified at %d predates available summaries (from %d)",
			recTS, sums[0].PeriodStart)
	}
	for i, s := range sums {
		if s.TS < recTS {
			continue
		}
		if slices.Contains(marks[i], slot) && recTS < s.PeriodStart {
			return 0, fmt.Errorf("%w: slot %d re-certified during period ending %d (record signed %d)",
				ErrStale, slot, s.TS, recTS)
		}
	}
	if recTS >= sums[len(sums)-1].PeriodStart {
		return 2 * rho, nil
	}
	return rho, nil
}

// TestIndexMatchesLinearScan drives the checker and the reference scan
// with the same seeded summary streams — hot slots marked in many
// periods, slots never marked, inserts growing the summary, a Trim in the
// middle — and probes every slot (some past the summary's length) at every
// period edge ±1, before the history and after it. Outcome, bound and
// error class must agree on every probe.
func TestIndexMatchesLinearScan(t *testing.T) {
	scheme := xortest.New()
	var stale, undecidable, twoRho, fresh int
	for seed := int64(1); seed <= 20; seed++ {
		rng := mrand.New(mrand.NewSource(seed))
		priv, pub, err := scheme.KeyGen(nil)
		if err != nil {
			t.Fatal(err)
		}
		const slots = 48
		start := int64(rng.Intn(50))
		p := NewPublisher(signer(scheme, priv), slots, start)
		c := NewChecker(scheme, pub)
		var sums []Summary
		var marks [][]int
		ts := start
		periods := 5 + rng.Intn(25)
		trimAt := rng.Intn(periods)
		for k := 0; k < periods; k++ {
			for j := rng.Intn(6); j > 0; j-- {
				switch rng.Intn(4) {
				case 0:
					p.MarkUpdated(rng.Intn(4)) // hot: marked in most periods
				case 1:
					p.MarkUpdated(slots + rng.Intn(8)) // an insert past the summary's length
				default:
					p.MarkUpdated(4 + rng.Intn(slots-8)) // the last 4 stay unmarked
				}
			}
			ts += 1 + int64(rng.Intn(9))
			s, _, err := publish(p, ts)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Add(s); err != nil {
				t.Fatal(err)
			}
			_, marked, err := decodeSlots(s.Compressed)
			if err != nil {
				t.Fatal(err)
			}
			sums, marks = append(sums, s), append(marks, marked)
			if k == trimAt {
				cut := sums[rng.Intn(len(sums))].TS + int64(rng.Intn(2))
				c.Trim(cut)
				for len(sums) > 0 && sums[0].TS < cut {
					sums, marks = sums[1:], marks[1:]
				}
				if c.Len() != len(sums) {
					t.Fatalf("seed %d: checker holds %d summaries after Trim(%d), reference %d", seed, c.Len(), cut, len(sums))
				}
			}
			probes := []int64{start - 1, start, ts + 1, ts + 100}
			for _, s := range sums {
				probes = append(probes, s.PeriodStart-1, s.PeriodStart, s.PeriodStart+1, s.TS-1, s.TS, s.TS+1)
			}
			for slot := 0; slot < slots+12; slot++ {
				for _, recTS := range probes {
					want, wantErr := scanFresh(sums, marks, slot, recTS, 10)
					got, gotErr := c.CheckFresh(slot, recTS, ts+1, 10)
					if got != want || (gotErr == nil) != (wantErr == nil) ||
						errors.Is(gotErr, ErrStale) != errors.Is(wantErr, ErrStale) {
						t.Fatalf("seed %d period %d slot %d recTS %d: index says (%d, %v), scan says (%d, %v)",
							seed, k, slot, recTS, got, gotErr, want, wantErr)
					}
					switch {
					case errors.Is(wantErr, ErrStale):
						stale++
					case wantErr != nil:
						undecidable++
					case want == 20:
						twoRho++
					default:
						fresh++
					}
				}
			}
		}
	}
	t.Logf("probes: %d stale, %d predating the history, %d fresh at 2ρ, %d fresh at ρ", stale, undecidable, twoRho, fresh)
	if stale == 0 || undecidable == 0 || twoRho == 0 || fresh == 0 {
		t.Fatal("the streams left an outcome unprobed")
	}
}

// TestAddRejectsNonPeriod: the index invariant rests on period starts
// rising with the sequence; a certified summary that ends before it
// starts, or numbered 0 (the index's "never marked"), is refused.
func TestAddRejectsNonPeriod(t *testing.T) {
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Summary{
		{Seq: 1, PeriodStart: 20, TS: 10},
		{Seq: 0, PeriodStart: 0, TS: 10},
	} {
		s.Compressed = appendSlots(nil, 8, nil)
		d := s.Digest()
		if s.Sig, err = scheme.Sign(priv, d[:]); err != nil {
			t.Fatal(err)
		}
		if err := NewChecker(scheme, pub).Add(s); err == nil {
			t.Fatalf("summary %d covering (%d, %d] ingested", s.Seq, s.PeriodStart, s.TS)
		}
	}
}
