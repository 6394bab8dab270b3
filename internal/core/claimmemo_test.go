package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

// countingScheme counts the verification jobs that reach the scheme
// layer — what the claim memo exists to keep small.
type countingScheme struct {
	sigagg.Scheme
	calls, jobs int
}

func (c *countingScheme) VerifyJobs(pub sigagg.PublicKey, jobs []sigagg.VerifyJob) error {
	c.calls++
	c.jobs += len(jobs)
	return c.Scheme.VerifyJobs(pub, jobs)
}

// memoFixture is a loaded system, one closed period (so answers carry a
// summary), and a counting single-threaded verifier of its own.
func memoFixture(t *testing.T, n int) (*Relation, *countingScheme, *Verifier) {
	t.Helper()
	sys := newSystem(t, bas.New(0))
	load(t, sys, n)
	deliverOp(t, sys)(sys.DA.ClosePeriod(1_000))
	cs := &countingScheme{Scheme: sys.Scheme}
	v := NewVerifier(cs, sys.Pub, DefaultConfig())
	v.SetParallelism(1)
	return sys, cs, v
}

func deliverOp(t *testing.T, sys *Relation) func(*UpdateMsg, error) {
	return func(m *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
}

func query(t *testing.T, sys *Relation, lo, hi int64) *Answer {
	t.Helper()
	ans, err := scan(sys.QS, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// forgeRecord returns a copy of ans with one attribute byte of its middle
// record changed; the honest answer is left alone.
func forgeRecord(ans *Answer) *Answer {
	c := *ans.Chain
	c.Records = append([]*Record(nil), c.Records...)
	r := *c.Records[len(c.Records)/2]
	r.Attrs = [][]byte{[]byte("forged")}
	c.Records[len(c.Records)/2] = &r
	return &Answer{Chain: &c, Summaries: ans.Summaries}
}

// TestVerifyBatchDedupsIdenticalAnswers: a batch repeating the same
// answer (hot ranges drawn many times) sends each distinct claim to the
// scheme once; the same batch again sends nothing and names every claim
// by its digests, and the third time by its content alone. A tampered
// copy — same aggregate, so the same memo entry, but no longer the
// identical statement — is still verified on its own and still fails,
// beside content-named honest copies or without, and leaves them
// content-named.
func TestVerifyBatchDedupsIdenticalAnswers(t *testing.T) {
	sys, cs, v := memoFixture(t, 100)
	a, b := query(t, sys, 100, 170), query(t, sys, 500, 530)
	ra, rb := span{100, 170}, span{500, 530}
	batch, ranges := []*Answer{a, b, a, a, b, a}, []span{ra, rb, ra, ra, rb, ra}
	for round, want := range []ClaimStats{
		{ClaimHits: 4, ClaimMisses: 2},
		{ClaimHits: 10, ClaimMisses: 2, BatchesWithoutEC: 1},
		{ClaimHits: 16, ClaimMisses: 2, ContentHits: 6, BatchesWithoutEC: 2},
	} {
		if _, err := verifyBatch(v, batch, ranges, 1_100); err != nil {
			t.Fatalf("round %d: duplicated valid batch rejected: %v", round+1, err)
		}
		if cs.jobs != 2 || cs.calls != 1 {
			t.Fatalf("round %d: scheme saw %d jobs in %d calls for 6 answers with 2 distinct claims", round+1, cs.jobs, cs.calls)
		}
		if st := v.ClaimStats(); st != want {
			t.Fatalf("after round %d: %+v, want %+v", round+1, st, want)
		}
	}

	forged := forgeRecord(a)
	for _, verifier := range []*Verifier{v, NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())} {
		if _, err := verifyBatch(verifier, []*Answer{a, forged, a}, []span{ra, ra, ra}, 1_100); !errors.Is(err, sigagg.ErrVerify) {
			t.Fatalf("tampered duplicate: want ErrVerify, got %v", err)
		}
	}
	if cs.jobs != 3 {
		t.Fatalf("the forged copy did not reach the scheme alone: %d jobs", cs.jobs)
	}
	before := v.ClaimStats()
	if _, err := verifyScan(v, a, ra.Lo, ra.Hi, 1_100); err != nil {
		t.Fatal(err)
	}
	if st := v.ClaimStats(); st.ContentHits != before.ContentHits+1 || cs.jobs != 3 {
		t.Fatalf("the honest answer after its forgery failed: %+v -> %+v, %d jobs", before, st, cs.jobs)
	}
}

// TestClaimMemoFailedBatchAdmitsNothing: the honest members of a batch
// that failed were never proven — set semantics attest the batch, not its
// members — so each still reaches the scheme afterwards; once they have
// passed on their own they are remembered, and the forgery never is.
func TestClaimMemoFailedBatchAdmitsNothing(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 100)
	scheme := sys.Scheme.(*bas.Scheme)
	v := NewVerifier(scheme, sys.Pub, DefaultConfig())
	v.SetParallelism(1)
	a, b := query(t, sys, 100, 170), query(t, sys, 500, 530)
	ra, rb := span{100, 170}, span{500, 530}
	forged := forgeRecord(a)

	fast := func() uint64 { return scheme.VerifyStats().FastVerifies }
	before := fast()
	if _, err := verifyBatch(v, []*Answer{a, forged, b}, []span{ra, ra, rb}, 200); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("batch with a forgery: want ErrVerify, got %v", err)
	}
	if fast() != before+1 {
		t.Fatalf("the failing batch cost %d verifications, want 1", fast()-before)
	}
	if _, err := verifyBatch(v, []*Answer{a, b}, []span{ra, rb}, 200); err != nil {
		t.Fatal(err)
	}
	if fast() != before+2 {
		t.Fatal("the honest members of a failed batch were remembered: they did not reach the scheme")
	}
	if st := v.ClaimStats(); st != (ClaimStats{ClaimMisses: 5}) {
		t.Fatalf("counters after a failed and a passing batch: %+v", st)
	}
	if _, err := verifyBatch(v, []*Answer{a, b}, []span{ra, rb}, 200); err != nil {
		t.Fatal(err)
	}
	if fast() != before+2 {
		t.Fatal("a passed batch was not remembered")
	}
	for i := 0; i < 2; i++ {
		if _, err := verifyScan(v, forged, ra.Lo, ra.Hi, 200); !errors.Is(err, sigagg.ErrVerify) {
			t.Fatalf("forgery, presentation %d after the failed batch: %v", i+2, err)
		}
	}
	if fast() != before+4 {
		t.Fatal("a repeated forgery did not reach the scheme every time")
	}
}

// TestClaimMemoPerKey: the memo belongs to a verifier and so to one
// public key. The same records under two owners have the same digests;
// what one owner's verifier has closed says nothing to the other's.
func TestClaimMemoPerKey(t *testing.T) {
	scheme := bas.New(0)
	var sys [2]*Relation
	var cs [2]*countingScheme
	var v [2]*Verifier
	var ans [2]*Answer
	for i := range sys {
		sys[i] = newSystem(t, scheme)
		load(t, sys[i], 50)
		cs[i] = &countingScheme{Scheme: sys[i].Scheme}
		v[i] = NewVerifier(cs[i], sys[i].Pub, DefaultConfig())
		ans[i] = query(t, sys[i], 100, 200)
	}
	if d0, d1 := ans[0].Chain.Digests(), ans[1].Chain.Digests(); string(d0[0]) != string(d1[0]) {
		t.Fatal("fixture: the two owners' records digest differently")
	}
	if _, err := verifyScan(v[0], ans[0], 100, 200, 200); err != nil {
		t.Fatal(err)
	}
	// The other owner's verifier: its own answer is new to it, and the
	// first owner's answer — closed next door — is a forgery here.
	if _, err := verifyScan(v[1], ans[0], 100, 200, 200); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("an answer signed under another key: %v", err)
	}
	if _, err := verifyScan(v[1], ans[1], 100, 200, 200); err != nil {
		t.Fatal(err)
	}
	if st := v[1].ClaimStats(); st.ClaimHits != 0 || st.ClaimMisses != 2 || cs[1].jobs != 2 {
		t.Fatalf("the second key's verifier: %+v, %d jobs at the scheme", st, cs[1].jobs)
	}
	if _, err := verifyScan(v[0], ans[1], 100, 200, 200); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("the first verifier accepted the second owner's answer: %v", err)
	}
}

// TestClaimMemoReplayStillStale: a version the session verified, and the
// owner has since superseded, is a claim the memo holds — the replay costs
// no curve arithmetic — and it is still rejected, by the freshness check
// the memo never touches.
func TestClaimMemoReplayStillStale(t *testing.T) {
	sys, cs, v := memoFixture(t, 50)
	old := query(t, sys, 100, 120)
	if _, err := verifyScan(v, old, 100, 120, 1_100); err != nil {
		t.Fatal(err)
	}
	deliver := deliverOp(t, sys)
	deliver(sys.DA.Update(110, [][]byte{[]byte("v2")}, 1_500))
	deliver(sys.DA.ClosePeriod(2_000))
	deliver(sys.DA.ClosePeriod(3_000))
	// The current answer teaches the session the new summaries.
	if _, err := verifyScan(v, query(t, sys, 100, 120), 100, 120, 3_100); err != nil {
		t.Fatal(err)
	}
	jobs := cs.jobs
	_, err := verifyScan(v, old, 100, 120, 3_100)
	if !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("replay of a verified, superseded version: want ErrStale, got %v", err)
	}
	if cs.jobs != jobs || v.ClaimStats().ClaimHits != 1 {
		t.Fatalf("the replayed claim was not served by the memo (%d jobs, %+v): the test no longer covers the hit path", cs.jobs-jobs, v.ClaimStats())
	}
}

// closeJobs closes bare claims through the verifier's one door and
// remembers them.
func closeJobs(v *Verifier, jobs ...sigagg.VerifyJob) error {
	admit, err := v.CheckClaims(nil, nil, jobs)
	if err == nil {
		admit()
	}
	return err
}

// TestClaimMemoConflictEviction: more live claims than a set has ways
// costs a full verification of whichever was replaced, nothing else — the
// evicted claim is accepted again when honest, the resident ones still
// hit, and a forgery aimed at the crowded set is rejected. Sets are
// chosen by the aggregate's fingerprint, under the verifier's own seed.
func TestClaimMemoConflictEviction(t *testing.T) {
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingScheme{Scheme: scheme}
	v := NewVerifier(cs, pub, DefaultConfig())
	v.SetParallelism(1)

	// memoWays+1 honest one-digest claims whose aggregates share a set.
	var (
		crowded []sigagg.VerifyJob
		home    = ^uint32(0)
	)
	for i := 0; len(crowded) <= memoWays; i++ {
		d := []byte(fmt.Sprintf("claim-%d", i))
		sig, err := scheme.Sign(priv, d)
		if err != nil {
			t.Fatal(err)
		}
		s := set(maphash.Bytes(v.memo.seed, sig))
		if home == ^uint32(0) {
			home = s
		}
		if s == home {
			crowded = append(crowded, sigagg.VerifyJob{Digests: [][]byte{d}, Agg: sig})
		}
	}
	for i := range crowded {
		if err := closeJobs(v, crowded[i]); err != nil {
			t.Fatal(err)
		}
	}
	if cs.jobs != memoWays+1 {
		t.Fatalf("%d jobs at the scheme for %d new claims", cs.jobs, memoWays+1)
	}
	// Round-robin: the set's first claim made room for its last.
	if err := closeJobs(v, crowded[memoWays]); err != nil || cs.jobs != memoWays+1 {
		t.Fatalf("the newest claim of a crowded set is not resident (err %v, %d jobs)", err, cs.jobs)
	}
	if err := closeJobs(v, crowded[1]); err != nil || cs.jobs != memoWays+1 {
		t.Fatalf("a claim that was not the victim is not resident (err %v, %d jobs)", err, cs.jobs)
	}
	if err := closeJobs(v, crowded[0]); err != nil || cs.jobs != memoWays+2 {
		t.Fatalf("the evicted claim: err %v, %d jobs at the scheme, want a full verification", err, cs.jobs)
	}
	// A resident claim's aggregate over other digests: the same entry, a
	// different name. (The re-admitted first claim took the second's way.)
	forged := sigagg.VerifyJob{Digests: crowded[3].Digests, Agg: crowded[2].Agg}
	if err := closeJobs(v, forged); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("a resident aggregate over another claim's digests: %v", err)
	}
	if err := closeJobs(v, crowded[2]); err != nil || cs.jobs != memoWays+3 {
		t.Fatalf("the forgery disturbed the claim whose aggregate it replayed (err %v, %d jobs)", err, cs.jobs)
	}
}

// TestClaimMemoConcurrent: CheckClaims is safe on one verifier from many
// goroutines (the table has a lock, the scratch is taken, never shared) —
// honest batches pass, the forger fails every time and poisons nothing.
func TestClaimMemoConcurrent(t *testing.T) {
	sys, _, _ := memoFixture(t, 200)
	v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
	var answers []*Answer
	var ranges []span
	for lo := int64(100); lo < 1_900; lo += 150 {
		answers = append(answers, query(t, sys, lo, lo+140))
		ranges = append(ranges, span{lo, lo + 140})
	}
	forged := forgeRecord(answers[3])
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				lo := (g + round) % (len(answers) - 4)
				chains := make([]*chain.Answer, 4)
				for i, ans := range answers[lo : lo+4] {
					chains[i] = ans.Chain
				}
				wantErr := g == 0
				if wantErr {
					chains[0] = forged.Chain
				}
				admit, err := v.CheckClaims(chains, nil, nil)
				if err == nil {
					admit()
				}
				if (err != nil) != wantErr {
					errs <- fmt.Errorf("worker %d round %d: %v", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := verifyScan(v, forged, ranges[3].Lo, ranges[3].Hi, 1_100); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("the forgery after the storm: %v", err)
	}
}

// The claim-memo oracle. One session's memoising Verifier is run beside
// the memo-free reference — chain.Verify on the scheme, then the same
// summary ingestion and freshness check on a checker of its own — over a
// seeded schedule of owner operations (insert, update, delete, period
// close) and answers: honest ones over a few hot ranges, so claims
// repeat, and mutated ones (flipped record byte, flipped aggregate bit —
// once to another curve point, once off the curve — dropped record,
// swapped records, moved boundary reference, replay of an older version),
// each a fixed function of the honest answer, so forged claims repeat
// too. The two must give the same verdict at every step.
//
// Mutation checks (run by hand, both fail it within the first seeds):
// admitting a batch's names before VerifyAll has returned, and naming a
// claim without its aggregate.
const (
	memoOracleSeeds      = 20
	memoOracleShortSeeds = 4
	memoOracleSteps      = 500
)

type memoOracle struct {
	t   *testing.T
	rng *rand.Rand
	sys *Relation
	now int64

	memo *Verifier // the session under test
	ref  *Verifier // the reference's summary state; its CheckClaims is never called

	keys    []int64 // the owner's keys, sorted
	hot     []span
	history map[span][]*Answer // honest answers seen per hot range, oldest first

	accepted, rejected int
}

func newMemoOracle(t *testing.T, seed int64) *memoOracle {
	o := &memoOracle{
		t: t, rng: rand.New(rand.NewSource(seed)), sys: newSystem(t, bas.New(0)), now: 100,
		history: map[span][]*Answer{},
	}
	load(t, o.sys, 64) // keys 10..640
	for k := int64(10); k <= 640; k += 10 {
		o.keys = append(o.keys, k)
	}
	o.memo = NewVerifier(o.sys.Scheme, o.sys.Pub, DefaultConfig())
	o.ref = NewVerifier(o.sys.Scheme, o.sys.Pub, DefaultConfig())
	for i := 0; i < 6; i++ {
		lo := int64(10 + o.rng.Intn(520))
		o.hot = append(o.hot, span{lo, lo + int64(20+o.rng.Intn(90))})
	}
	return o
}

// reference is the memo-free verdict: what verifyScan does, with
// chain.Verify in place of CheckClaims.
func (o *memoOracle) reference(ans *Answer, rg span) error {
	held := uint64(0)
	if latest, ok := o.ref.LatestSummary(); ok {
		held = latest.Seq
	}
	for _, s := range ans.Summaries {
		if s.Seq <= held {
			continue
		}
		if err := o.ref.IngestSummary(s); err != nil {
			return err
		}
		held = s.Seq
	}
	if ans.Chain.Lo != rg.Lo || ans.Chain.Hi != rg.Hi {
		return fmt.Errorf("%w: wrong range", sigagg.ErrVerify)
	}
	if err := chain.Verify(o.sys.Scheme, o.sys.Pub, ans.Chain); err != nil {
		return err
	}
	_, err := o.ref.Staleness(ans.Chain, o.now)
	return err
}

func (o *memoOracle) ownerOp() {
	deliver := deliverOp(o.t, o.sys)
	o.now += int64(20 + o.rng.Intn(200))
	switch op := o.rng.Intn(10); {
	case op < 4:
		k := o.keys[o.rng.Intn(len(o.keys))]
		deliver(o.sys.DA.Update(k, [][]byte{[]byte(fmt.Sprintf("v@%d", o.now))}, o.now))
	case op < 6:
		k := int64(10+o.rng.Intn(640))/10*10 + 5
		at, present := slices.BinarySearch(o.keys, k)
		if present {
			return
		}
		deliver(o.sys.DA.Insert(&Record{Key: k, Attrs: [][]byte{[]byte("ins")}}, o.now))
		o.keys = slices.Insert(o.keys, at, k)
	case op < 8:
		if len(o.keys) < 32 {
			return
		}
		at := o.rng.Intn(len(o.keys))
		k := o.keys[at]
		deliver(o.sys.DA.Delete(k, o.now))
		o.keys = slices.Delete(o.keys, at, at+1)
	default:
		deliver(o.sys.DA.ClosePeriod(o.now))
	}
}

// mutate returns what a forging server makes of the honest answer, or the
// answer itself when the mutation does not apply to it.
func (o *memoOracle) mutate(kind int, ans *Answer, rg span) (*Answer, string) {
	c := *ans.Chain
	c.Records = append([]*Record(nil), c.Records...)
	out := &Answer{Chain: &c, Summaries: ans.Summaries}
	n := len(c.Records)
	switch kind {
	case 0:
		target := &c.Anchor
		if n > 0 {
			target = &c.Records[n/2]
		}
		r := **target
		r.Attrs = [][]byte{append([]byte(nil), r.Attrs[0]...)}
		r.Attrs[0][0] ^= 1
		*target = &r
		return out, "flipped record byte"
	case 1:
		c.Agg = c.Agg.Clone()
		c.Agg[0] ^= 1 // the same x, the other y: a curve point, the wrong one
		return out, "negated aggregate"
	case 2:
		c.Agg = c.Agg.Clone()
		c.Agg[len(c.Agg)/2] ^= 0x10
		return out, "flipped aggregate bit"
	case 3:
		if n < 2 {
			return ans, "honest (nothing to drop)"
		}
		c.Records = append(c.Records[:n/2:n/2], c.Records[n/2+1:]...)
		return out, "dropped record"
	case 4:
		if n < 2 {
			return ans, "honest (nothing to swap)"
		}
		c.Records[0], c.Records[1] = c.Records[1], c.Records[0]
		return out, "swapped records"
	case 5:
		c.Left.RID++
		c.AnchorLeft.RID++
		return out, "moved boundary reference"
	default:
		if h := o.history[rg]; len(h) > 1 {
			return h[o.rng.Intn(len(h)-1)], "replayed old version"
		}
		return ans, "honest (no older version)"
	}
}

func (o *memoOracle) step(step int) {
	if o.rng.Intn(10) == 0 {
		o.ownerOp()
		return
	}
	rg := o.hot[o.rng.Intn(len(o.hot))]
	hot := o.rng.Intn(5) != 0
	if !hot {
		lo := int64(o.rng.Intn(640))
		rg = span{lo, lo + int64(o.rng.Intn(100))}
	}
	ans := query(o.t, o.sys, rg.Lo, rg.Hi)
	what := "honest"
	if hot {
		h := o.history[rg]
		if len(h) == 0 || !bytes.Equal(h[len(h)-1].Chain.Agg, ans.Chain.Agg) {
			o.history[rg] = append(h, ans)
		}
	}
	honest := o.rng.Intn(2) == 0
	if !honest {
		var forged *Answer
		forged, what = o.mutate(o.rng.Intn(7), ans, rg)
		honest, ans = forged == ans, forged
	}
	_, memoErr := verifyScan(o.memo, ans, rg.Lo, rg.Hi, o.now)
	refErr := o.reference(ans, rg)
	if (memoErr == nil) != (refErr == nil) {
		o.t.Fatalf("step %d, %s answer for [%d,%d]: memoising verifier says %v, chain.Verify + freshness says %v",
			step, what, rg.Lo, rg.Hi, memoErr, refErr)
	}
	if honest && refErr != nil {
		o.t.Fatalf("step %d: the honest current answer for [%d,%d] was rejected: %v", step, rg.Lo, rg.Hi, refErr)
	}
	if refErr == nil {
		o.accepted++
	} else {
		o.rejected++
	}
}

func TestClaimMemoOracle(t *testing.T) {
	seeds := memoOracleSeeds
	if testing.Short() || raceEnabled {
		seeds = memoOracleShortSeeds
	}
	var total ClaimStats
	accepted, rejected := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// A failing seed is named by its subtest: replay it alone with
		// -run 'TestClaimMemoOracle/seed=N'.
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newMemoOracle(t, seed)
			for step := 1; step <= memoOracleSteps; step++ {
				o.step(step)
			}
			st := o.memo.ClaimStats()
			total.ClaimHits += st.ClaimHits
			total.ClaimMisses += st.ClaimMisses
			total.ContentHits += st.ContentHits
			total.BatchesWithoutEC += st.BatchesWithoutEC
			accepted += o.accepted
			rejected += o.rejected
		})
	}
	// The oracle is only as good as its mix: without hits the memo goes
	// untested — by digest name or by content name — and without rejected
	// repeats so does what it must not hold.
	t.Logf("%d seeds × %d steps: %d accepted, %d rejected; %+v", seeds, memoOracleSteps, accepted, rejected, total)
	if !t.Failed() && (total.ClaimHits < total.ClaimMisses/4 || total.ContentHits < total.ClaimHits/4 ||
		total.ClaimMisses < total.ClaimHits/50 || rejected < accepted/4) {
		t.Fatalf("degenerate schedule: %+v, %d accepted, %d rejected", total, accepted, rejected)
	}
}

// held is the memo entry under agg's fingerprint, which the test may
// read and overwrite (it runs alone on the verifier).
func held(t *testing.T, v *Verifier, agg sigagg.Signature) *memoEntry {
	t.Helper()
	var e *memoEntry
	if v.memo.table != nil {
		e = v.memo.table.find(maphash.Bytes(v.memo.seed, agg))
	}
	if e == nil {
		t.Fatal("the claim has no memo entry")
	}
	return e
}

// nameByContent verifies ans until v knows its claim by content.
func nameByContent(t *testing.T, v *Verifier, ans *Answer, rg span) *memoEntry {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := verifyScan(v, ans, rg.Lo, rg.Hi, 1_100); err != nil {
			t.Fatal(err)
		}
	}
	e := held(t, v, ans.Chain.Agg)
	if e.tag&1 != contentNamed {
		t.Fatal("fixture: two verifications left the claim digest-named")
	}
	return e
}

// TestContentNameIsKeyed: a content name is a MAC under a key each
// verifier draws for itself. The same claim gets different names in two
// verifiers, and a name copied from one memo into the other is a miss
// there: the claim goes to the scheme, and is accepted on its merits.
func TestContentNameIsKeyed(t *testing.T) {
	sys, cs, v1 := memoFixture(t, 100)
	v2 := NewVerifier(cs, sys.Pub, DefaultConfig())
	v2.SetParallelism(1)
	ans, rg := query(t, sys, 100, 170), span{100, 170}
	n1, e2 := nameByContent(t, v1, ans, rg).name, nameByContent(t, v2, ans, rg)
	if n1 == e2.name {
		t.Fatal("two verifiers gave one claim the same content name")
	}
	e2.name = n1
	before, jobs := v2.ClaimStats(), cs.jobs
	if _, err := verifyScan(v2, ans, rg.Lo, rg.Hi, 1_100); err != nil {
		t.Fatal(err)
	}
	if st := v2.ClaimStats(); st.ContentHits != before.ContentHits || cs.jobs != jobs+1 {
		t.Fatalf("another verifier's name was a hit: %+v -> %+v, %d jobs at the scheme", before, st, cs.jobs-jobs)
	}
}

// TestRenameDrawsFreshNonce: no nonce tags two names. The same claim,
// content-named, forgotten and content-named again in a new entry, gets a
// second name under a later nonce.
func TestRenameDrawsFreshNonce(t *testing.T) {
	sys, _, v := memoFixture(t, 100)
	ans, rg := query(t, sys, 100, 170), span{100, 170}
	first := nameByContent(t, v, ans, rg).name
	// Forgotten: the next sighting is a miss again.
	v.memo.table = nil
	if _, err := verifyScan(v, ans, rg.Lo, rg.Hi, 1_100); err != nil {
		t.Fatal(err)
	}
	second := nameByContent(t, v, ans, rg).name
	if first == second || binary.BigEndian.Uint64(second[:8]) <= binary.BigEndian.Uint64(first[:8]) {
		t.Fatalf("the claim named again: nonce %x tag %x, then nonce %x tag %x", first[:8], first[8:24], second[:8], second[8:24])
	}
}

// TestContentNameEveryByteCounts: a content-named claim is recognised by
// its whole name. Its entry with any one of the nonce's or the tag's
// bytes changed does not recognise the honest answer (which then goes to
// the scheme and passes), and the honest answer with one record byte
// changed is no content hit either: it reaches the scheme, and fails.
func TestContentNameEveryByteCounts(t *testing.T) {
	sys, cs, v := memoFixture(t, 100)
	ans, rg := query(t, sys, 100, 170), span{100, 170}
	e := nameByContent(t, v, ans, rg)
	named := *e
	for i := 0; i < 8+16; i++ {
		*e = named
		e.name[i] ^= 0x80
		before, jobs := v.ClaimStats(), cs.jobs
		if _, err := verifyScan(v, ans, rg.Lo, rg.Hi, 1_100); err != nil {
			t.Fatal(err)
		}
		if st := v.ClaimStats(); st.ContentHits != before.ContentHits || cs.jobs != jobs+1 {
			t.Fatalf("name byte %d changed, still a content hit: %+v -> %+v", i, before, st)
		}
	}

	*e = named
	c := *ans.Chain
	c.Records = slices.Clone(c.Records)
	r := *c.Records[3]
	r.Attrs = [][]byte{bytes.Clone(r.Attrs[0])}
	r.Attrs[0][0] ^= 1
	c.Records[3] = &r
	forged := &Answer{Chain: &c, Summaries: ans.Summaries}
	before, jobs := v.ClaimStats(), cs.jobs
	if _, err := verifyScan(v, forged, rg.Lo, rg.Hi, 1_100); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("one record byte changed in a content-named answer: want ErrVerify, got %v", err)
	}
	if st := v.ClaimStats(); st.ContentHits != before.ContentHits || cs.jobs != jobs+1 {
		t.Fatalf("the forged copy did not reach the scheme: %+v -> %+v, %d jobs", before, st, cs.jobs-jobs)
	}
	if _, err := verifyScan(v, ans, rg.Lo, rg.Hi, 1_100); err != nil || v.ClaimStats().ContentHits != before.ContentHits+1 {
		t.Fatalf("the honest answer after its forgery: %v, %+v", err, v.ClaimStats())
	}
}

// TestStructureCheckedWhateverTheMemoHolds: a chain's structure is
// checked before its content name is compared, so the structural
// guarantee does not rest on the MAC. The memo is made to hold the name
// of a structurally broken answer (records outside its range, the honest
// aggregate) as if its tag had been forged; the answer is still refused.
func TestStructureCheckedWhateverTheMemoHolds(t *testing.T) {
	sys, _, v := memoFixture(t, 100)
	ans, rg := query(t, sys, 100, 170), span{100, 170}
	e := nameByContent(t, v, ans, rg)
	c := *ans.Chain
	c.Lo, c.Hi = 120, 130
	broken := &Answer{Chain: &c, Summaries: ans.Summaries}
	e.name = v.memo.contentName(new(claimScratch), broken.Chain)
	if _, err := verifyScan(v, broken, c.Lo, c.Hi, 1_100); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("records outside the range, under a name the memo holds: want ErrVerify, got %v", err)
	}
	if st := v.ClaimStats(); st.ContentHits != 0 {
		t.Fatalf("the broken answer was a content hit: %+v", st)
	}
}

// TestContentNameCoversEveryField: a claim's content name changes with
// every field its digests or aggregate read, one mutation at a time —
// every record field, a length boundary moved between two attributes, each
// reference's key and rid, the anchor's presence and fields, the
// aggregate; and for a projection its slots, a row's rid and ts, a value
// and a boundary moved between two values. A field the identity left out
// would let a content hit stand for a claim nobody verified.
func TestContentNameCoversEveryField(t *testing.T) {
	rec := func(rid uint64, key int64, attrs ...string) *Record {
		r := &Record{RID: rid, Key: key, TS: int64(100 + rid)}
		for _, a := range attrs {
			r.Attrs = append(r.Attrs, []byte(a))
		}
		return r
	}
	scan := func() *chain.Answer {
		return &chain.Answer{
			Lo: 10, Hi: 40,
			Records: []*Record{rec(1, 10, "ab", "c"), rec(2, 20, "de", "f"), rec(3, 30, "gh", "i")},
			Left:    chain.Ref{Key: 5, RID: 9}, Right: chain.Ref{Key: 50, RID: 8},
			Agg: sigagg.Signature("aggregate"),
		}
	}
	empty := func() *chain.Answer {
		return &chain.Answer{
			Lo: 11, Hi: 19, Anchor: rec(1, 10, "ab", "c"),
			AnchorLeft: chain.Ref{Key: 5, RID: 9}, Right: chain.Ref{Key: 20, RID: 2},
			Agg: sigagg.Signature("aggregate"),
		}
	}
	proj := func() *projection.Answer {
		return &projection.Answer{
			AttrIdxs: []int{0, 2},
			Rows: []projection.Row{
				{RID: 1, TS: 101, Values: [][]byte{[]byte("ab"), []byte("c")}},
				{RID: 2, TS: 102, Values: [][]byte{[]byte("de"), []byte("f")}},
			},
			Agg: sigagg.Signature("aggregate"),
		}
	}
	// Through the keyed function: a name drawn before the mutation must
	// recognise the identity before it and not after.
	m, sc := &NewVerifier(xortest.New(), nil, DefaultConfig()).memo, new(claimScratch)
	covered := func(x identity, mutate func()) bool {
		name := m.contentName(sc, x)
		if !m.namedBy(sc, x, &name) {
			t.Fatal("an unchanged identity is not recognised by its own content name")
		}
		mutate()
		return !m.namedBy(sc, x, &name)
	}
	chains := []struct {
		what   string
		base   func() *chain.Answer
		mutate func(*chain.Answer)
	}{
		{"lo", scan, func(a *chain.Answer) { a.Lo-- }},
		{"hi", scan, func(a *chain.Answer) { a.Hi++ }},
		{"a record's rid", scan, func(a *chain.Answer) { a.Records[1].RID++ }},
		{"a record's key", scan, func(a *chain.Answer) { a.Records[1].Key++ }},
		{"a record's ts", scan, func(a *chain.Answer) { a.Records[1].TS++ }},
		{"an attribute byte", scan, func(a *chain.Answer) { a.Records[1].Attrs[0][1] ^= 1 }},
		{"an attribute boundary", scan, func(a *chain.Answer) {
			a.Records[1].Attrs = [][]byte{[]byte("d"), []byte("ef")}
		}},
		{"the attribute count", scan, func(a *chain.Answer) {
			a.Records[1].Attrs = append(a.Records[1].Attrs, nil)
		}},
		{"the record count", scan, func(a *chain.Answer) { a.Records = a.Records[:2] }},
		{"the left ref's key", scan, func(a *chain.Answer) { a.Left.Key++ }},
		{"the left ref's rid", scan, func(a *chain.Answer) { a.Left.RID++ }},
		{"the right ref's key", scan, func(a *chain.Answer) { a.Right.Key++ }},
		{"the right ref's rid", scan, func(a *chain.Answer) { a.Right.RID++ }},
		{"an anchor added", scan, func(a *chain.Answer) { a.Anchor = rec(0, 0) }},
		{"the anchor removed", empty, func(a *chain.Answer) { a.Anchor = nil }},
		{"the anchor's rid", empty, func(a *chain.Answer) { a.Anchor.RID++ }},
		{"the anchor's key", empty, func(a *chain.Answer) { a.Anchor.Key++ }},
		{"the anchor's ts", empty, func(a *chain.Answer) { a.Anchor.TS++ }},
		{"an anchor attribute boundary", empty, func(a *chain.Answer) {
			a.Anchor.Attrs = [][]byte{[]byte("a"), []byte("bc")}
		}},
		{"the anchor's left ref's key", empty, func(a *chain.Answer) { a.AnchorLeft.Key++ }},
		{"the anchor's left ref's rid", empty, func(a *chain.Answer) { a.AnchorLeft.RID++ }},
		{"the empty answer's right ref", empty, func(a *chain.Answer) { a.Right.RID++ }},
		{"an aggregate byte", scan, func(a *chain.Answer) { a.Agg[0] ^= 1 }},
		{"the aggregate's length", scan, func(a *chain.Answer) { a.Agg = a.Agg[:len(a.Agg)-1] }},
	}
	for _, tc := range chains {
		if a := tc.base(); !covered(a, func() { tc.mutate(a) }) {
			t.Errorf("chain: %s changed, the content name still recognises it", tc.what)
		}
	}
	projs := []struct {
		what   string
		mutate func(*projection.Answer)
	}{
		{"a slot", func(p *projection.Answer) { p.AttrIdxs[1]++ }},
		{"the slot count", func(p *projection.Answer) { p.AttrIdxs = p.AttrIdxs[:1] }},
		{"a row's rid", func(p *projection.Answer) { p.Rows[1].RID++ }},
		{"a row's ts", func(p *projection.Answer) { p.Rows[1].TS++ }},
		{"a value byte", func(p *projection.Answer) { p.Rows[1].Values[0][0] ^= 1 }},
		{"a value boundary", func(p *projection.Answer) {
			p.Rows[1].Values = [][]byte{[]byte("d"), []byte("ef")}
		}},
		{"the value count", func(p *projection.Answer) { p.Rows[1].Values = p.Rows[1].Values[:1] }},
		{"the row count", func(p *projection.Answer) { p.Rows = p.Rows[:1] }},
		{"an aggregate byte", func(p *projection.Answer) { p.Agg[0] ^= 1 }},
	}
	for _, tc := range projs {
		if p := proj(); !covered(p, func() { tc.mutate(p) }) {
			t.Errorf("projection: %s changed, the content name still recognises it", tc.what)
		}
	}
	// The kinds are told apart: each identity opens with its kind's tag,
	// so no chain answer's bytes read as a projection's.
	if c, p := scan().AppendIdentity(nil), proj().AppendIdentity(nil); c[0] != 'c' || p[0] != 'p' {
		t.Errorf("identities open with %q (chain) and %q (projection), want 'c' and 'p'", c[0], p[0])
	}
}

// BenchmarkContentName times a content hit on a 50 × 512 B chain answer
// whose claim the verifier already knows by content: the fingerprint
// probe, the structural check and the content name, no digest and no
// curve arithmetic. The bytes are the answer's identity.
func BenchmarkContentName(b *testing.B) {
	sys := newSystem(b, bas.New(0))
	recs := make([]*Record, 50)
	for i := range recs {
		recs[i] = &Record{Key: int64(i+1) * 10, Attrs: [][]byte{bytes.Repeat([]byte{byte(i)}, 512)}}
	}
	msg, err := sys.DA.Load(recs, 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		b.Fatal(err)
	}
	ans, err := scan(sys.QS, 10, 500)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
	v.SetParallelism(1)
	chains := []*chain.Answer{ans.Chain}
	check := func() {
		admit, err := v.CheckClaims(chains, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		admit()
	}
	check() // a miss: digest-named
	check() // a digest hit: content-named from here on
	b.SetBytes(int64(len(ans.Chain.AppendIdentity(nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		check()
	}
	b.StopTimer()
	if st := v.ClaimStats(); st.ContentHits != uint64(b.N) {
		b.Fatalf("%d of %d checks were content hits", st.ContentHits, b.N)
	}
}
