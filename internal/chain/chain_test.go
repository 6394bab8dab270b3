package chain

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

type fixture struct {
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	recs   []*Record // sorted by key
	sigs   []sigagg.Signature
}

// newFixture signs a small relation with chained signatures, including
// the sentinel chaining at the domain edges.
func newFixture(t *testing.T, keys []int64) *fixture {
	t.Helper()
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{scheme: scheme, priv: priv, pub: pub}
	for i, k := range keys {
		f.recs = append(f.recs, &Record{
			RID:   uint64(i + 1),
			Key:   k,
			Attrs: [][]byte{[]byte(fmt.Sprintf("payload-%d", k))},
			TS:    100,
		})
	}
	for i, r := range f.recs {
		left, right := MinRef, MaxRef
		if i > 0 {
			left = f.recs[i-1].Ref()
		}
		if i < len(f.recs)-1 {
			right = f.recs[i+1].Ref()
		}
		d := Digest(r, left, right)
		sig, err := scheme.Sign(priv, d[:])
		if err != nil {
			t.Fatal(err)
		}
		f.sigs = append(f.sigs, sig)
	}
	return f
}

// answer builds the honest server answer for [lo, hi].
func (f *fixture) answer(t *testing.T, lo, hi int64) *Answer {
	t.Helper()
	a := &Answer{Lo: lo, Hi: hi, Left: MinRef, Right: MaxRef}
	var sigs []sigagg.Signature
	firstIdx := -1
	for i, r := range f.recs {
		if r.Key >= lo && r.Key <= hi {
			if firstIdx == -1 {
				firstIdx = i
			}
			a.Records = append(a.Records, r)
			sigs = append(sigs, f.sigs[i])
		}
	}
	if len(a.Records) > 0 {
		if firstIdx > 0 {
			a.Left = f.recs[firstIdx-1].Ref()
		}
		lastIdx := firstIdx + len(a.Records) - 1
		if lastIdx < len(f.recs)-1 {
			a.Right = f.recs[lastIdx+1].Ref()
		}
	} else {
		// Anchor on the predecessor of lo (or fail the test setup).
		anchorIdx := -1
		for i, r := range f.recs {
			if r.Key < lo {
				anchorIdx = i
			}
		}
		if anchorIdx == -1 {
			t.Fatal("fixture: no anchor available")
		}
		a.Anchor = f.recs[anchorIdx]
		a.AnchorLeft = MinRef
		if anchorIdx > 0 {
			a.AnchorLeft = f.recs[anchorIdx-1].Ref()
		}
		a.Right = MaxRef
		if anchorIdx < len(f.recs)-1 {
			a.Right = f.recs[anchorIdx+1].Ref()
		}
		sigs = append(sigs, f.sigs[anchorIdx])
	}
	agg, err := f.scheme.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	a.Agg = agg
	return a
}

func TestVerifyHonestAnswer(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30, 40, 50})
	a := f.answer(t, 15, 45)
	if len(a.Records) != 3 {
		t.Fatalf("answer has %d records, want 3", len(a.Records))
	}
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyWholeDomain(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30})
	a := f.answer(t, 0, 100)
	if len(a.Records) != 3 || a.Left != MinRef || a.Right != MaxRef {
		t.Fatal("whole-domain answer malformed")
	}
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsDroppedInterior(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30, 40, 50})
	a := f.answer(t, 15, 45)
	// Server drops record 30 and its signature from the aggregate.
	dropped := a.Records[1]
	a.Records = append(a.Records[:1:1], a.Records[2:]...)
	var sigs []sigagg.Signature
	for i, r := range f.recs {
		if r.Key >= 15 && r.Key <= 45 && r != dropped {
			sigs = append(sigs, f.sigs[i])
		}
	}
	a.Agg, _ = f.scheme.Aggregate(sigs)
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped record: want ErrVerify, got %v", err)
	}
}

func TestVerifyDetectsDroppedEdgeRecord(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30, 40, 50})
	a := f.answer(t, 15, 45)
	// Drop the last qualifying record (40) and pretend the boundary is 50.
	a.Records = a.Records[:2]
	sigs := []sigagg.Signature{f.sigs[1], f.sigs[2]}
	a.Agg, _ = f.scheme.Aggregate(sigs)
	// Right boundary still claims 50; record 30's signature chains to 40,
	// so verification must fail.
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped edge record: want ErrVerify, got %v", err)
	}
}

func TestVerifyDetectsTamperedValue(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30})
	a := f.answer(t, 10, 30)
	a.Records[1] = &Record{RID: a.Records[1].RID, Key: a.Records[1].Key,
		Attrs: [][]byte{[]byte("forged")}, TS: a.Records[1].TS}
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("tampered value: want ErrVerify, got %v", err)
	}
}

func TestVerifyDetectsShiftedBoundary(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30, 40, 50})
	a := f.answer(t, 15, 45)
	// Server claims a bogus right boundary inside the range.
	a.Right = Ref{Key: 44, RID: 99}
	if err := Verify(f.scheme, f.pub, a); err == nil {
		t.Fatal("in-range boundary accepted")
	}
	a = f.answer(t, 15, 45)
	// A wrong (but out-of-range) boundary breaks the chained digests.
	a.Right = Ref{Key: 60, RID: 99}
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("forged boundary: want ErrVerify, got %v", err)
	}
}

func TestVerifyEmptyAnswer(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 50, 60})
	a := f.answer(t, 30, 40) // gap between 20 and 50
	if a.Anchor == nil || a.Anchor.Key != 20 {
		t.Fatalf("anchor = %+v", a.Anchor)
	}
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyEmptyAnswerLiesDetected(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30, 50})
	// True answer for [25, 45] is {30}; server pretends it is empty by
	// anchoring on 20 and claiming its right neighbour is 50.
	a := &Answer{Lo: 25, Hi: 45, Anchor: f.recs[1], AnchorLeft: f.recs[0].Ref(),
		Right: f.recs[3].Ref()}
	a.Agg = f.sigs[1].Clone()
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("fake empty answer: want ErrVerify, got %v", err)
	}
}

func TestVerifyEmptyAnswerRightAnchored(t *testing.T) {
	// Range below the smallest key: the proof anchors on the first
	// record, whose chained left reference is the Min sentinel.
	f := newFixture(t, []int64{10, 20, 30})
	a := &Answer{Lo: 2, Hi: 5, Anchor: f.recs[0], AnchorLeft: MinRef,
		Right: f.recs[1].Ref(), Agg: f.sigs[0].Clone()}
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A right anchor whose left neighbour is inside the range proves
	// nothing and must be rejected.
	a2 := &Answer{Lo: 15, Hi: 25, Anchor: f.recs[2], AnchorLeft: f.recs[1].Ref(),
		Right: MaxRef, Agg: f.sigs[2].Clone()}
	if err := Verify(f.scheme, f.pub, a2); err == nil {
		t.Fatal("right anchor with in-range left neighbour accepted")
	}
}

func TestVerifyEmptyAnswerBadAnchorPosition(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30})
	a := f.answer(t, 40, 45) // empty, anchored on 30 with MaxRef right
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Anchor inside the range must be rejected outright.
	a.Anchor = f.recs[2]
	a.Lo, a.Hi = 25, 45
	if err := Verify(f.scheme, f.pub, a); err == nil {
		t.Fatal("anchor inside range accepted")
	}
}

func TestDuplicateKeysChainByRID(t *testing.T) {
	// Three records share key 20 (as S.B duplicates do in §3.5). Dropping
	// the middle one must be detected because the chain references RIDs.
	f := newFixture(t, []int64{10, 20, 20, 20, 30})
	a := f.answer(t, 20, 20)
	if len(a.Records) != 3 {
		t.Fatalf("answer has %d records, want 3", len(a.Records))
	}
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("honest duplicate answer: %v", err)
	}
	// Drop the middle duplicate.
	a.Records = append(a.Records[:1:1], a.Records[2:]...)
	a.Agg, _ = f.scheme.Aggregate([]sigagg.Signature{f.sigs[1], f.sigs[3]})
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped duplicate: want ErrVerify, got %v", err)
	}
}

func TestVerifyRejectsReorderedRecords(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30})
	a := f.answer(t, 10, 30)
	a.Records[0], a.Records[1] = a.Records[1], a.Records[0]
	if err := Verify(f.scheme, f.pub, a); err == nil {
		t.Fatal("reordered records accepted")
	}
}

func TestVerifyNilAnswer(t *testing.T) {
	f := newFixture(t, []int64{1})
	if err := Verify(f.scheme, f.pub, nil); err == nil {
		t.Fatal("nil answer accepted")
	}
}

func TestRefOrdering(t *testing.T) {
	a := Ref{Key: 1, RID: 5}
	b := Ref{Key: 1, RID: 6}
	c := Ref{Key: 2, RID: 0}
	if !a.Less(b) || !b.Less(c) || b.Less(a) {
		t.Fatal("Ref ordering broken")
	}
	if !MinRef.Less(a) || !c.Less(MaxRef) {
		t.Fatal("sentinel ordering broken")
	}
}

func TestDigestBindsNeighbours(t *testing.T) {
	r := &Record{RID: 1, Key: 10, TS: 5}
	d1 := Digest(r, Ref{Key: 5, RID: 2}, Ref{Key: 15, RID: 3})
	d2 := Digest(r, Ref{Key: 5, RID: 2}, Ref{Key: 15, RID: 4})
	if d1 == d2 {
		t.Fatal("digest must bind neighbour RIDs")
	}
}

func TestVOSize(t *testing.T) {
	f := newFixture(t, []int64{10, 20, 30})
	a := f.answer(t, 10, 30)
	// VO = one aggregate signature + two boundary refs, independent of
	// answer cardinality (§3.3).
	if got := a.VOSize(f.scheme.SignatureSize()); got != f.scheme.SignatureSize()+24 {
		t.Fatalf("VO size = %d", got)
	}
}

// TestDigestPreimageSizedExactly: Digest sizes its buffer by preimageLen,
// so a record's bytes are copied once; a drifted length would bring the
// per-record buffer growths back without failing anything else.
func TestDigestPreimageSizedExactly(t *testing.T) {
	for _, r := range []*Record{
		{RID: 1, Key: 2, TS: 3},
		{RID: 1, Key: 2, TS: 3, Attrs: [][]byte{nil, []byte("a"), make([]byte, 512)}},
	} {
		w := digest.NewWriter(preimageLen(r))
		d := digestWith(w, r, MinRef, MaxRef)
		if n := preimageLen(r); len(w.Bytes()) != n || cap(w.Bytes()) != n {
			t.Fatalf("preimageLen = %d, the preimage is %d bytes in a buffer of %d", n, len(w.Bytes()), cap(w.Bytes()))
		}
		if d != Digest(r, MinRef, MaxRef) {
			t.Fatal("digestWith and Digest disagree")
		}
	}
}
