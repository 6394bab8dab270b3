package chain

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// signedAnswer builds a valid chained answer of n records starting at
// key base (step 10).
func signedAnswer(t *testing.T, scheme sigagg.Scheme, priv sigagg.PrivateKey, base int64, n int) *Answer {
	t.Helper()
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{
			RID:   uint64(base) + uint64(i+1),
			Key:   base + int64(i)*10,
			Attrs: [][]byte{[]byte(fmt.Sprintf("v-%d", i))},
			TS:    7,
		}
	}
	a := &Answer{
		Lo:      base,
		Hi:      base + int64(n-1)*10,
		Records: recs,
		Left:    Ref{Key: base - 10, RID: uint64(base)},
		Right:   Ref{Key: base + int64(n)*10, RID: uint64(base) + uint64(n+1)},
	}
	sigs := make([]sigagg.Signature, n)
	for i, d := range a.Digests() {
		sig, err := scheme.Sign(priv, d)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	agg, err := scheme.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	a.Agg = agg
	return a
}

func TestDigestsParallelMatchesSerial(t *testing.T) {
	scheme := bas.New(0)
	priv, _, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Large enough to cross the digestChunk threshold.
	a := signedAnswer(t, scheme, priv, 1000, 3*digestChunk+17)
	want := a.Digests()
	for _, par := range []int{1, 2, 7} {
		got := a.DigestsParallel(par)
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d digests, want %d", par, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("par=%d: digest %d differs", par, i)
			}
		}
	}
}

// Jobs digests a chunk of answers through shared buffers; what each job
// carries must be exactly what its answer's own Digests returns, for
// records and for an empty answer's anchor, however the batch is split
// across workers — and no job may be able to grow into its neighbour's
// views.
func TestJobsDigestsMatchPerAnswer(t *testing.T) {
	var answers []*Answer
	for i := 0; i < 9; i++ {
		base := int64(1000 * (i + 1))
		n := 1 + (i*5)%7
		recs := make([]*Record, n)
		for j := range recs {
			recs[j] = &Record{RID: uint64(base) + uint64(j+1), Key: base + int64(j)*10, Attrs: [][]byte{bytes.Repeat([]byte{byte(i)}, 3+40*j)}, TS: 7}
		}
		a := &Answer{Lo: base, Hi: base + int64(n-1)*10, Records: recs,
			Left: Ref{Key: base - 10, RID: 1}, Right: Ref{Key: base + int64(n)*10, RID: 2}, Agg: sigagg.Signature{byte(i)}}
		if i%4 == 3 { // an empty answer, anchored left of its range
			a = &Answer{Lo: base, Hi: base + 5, Anchor: recs[0], AnchorLeft: MinRef, Right: Ref{Key: base + 10, RID: 2}, Agg: sigagg.Signature{byte(i)}}
			a.Anchor.Key = base - 1
		}
		answers = append(answers, a)
	}
	for _, par := range []int{1, 2, 4, 16} {
		jobs, err := Jobs(answers, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(answers) {
			t.Fatalf("par=%d: %d jobs for %d distinct answers", par, len(jobs), len(answers))
		}
		for i, a := range answers {
			want := a.Digests()
			got := jobs[i].Digests
			if len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("par=%d answer %d: %d digests (cap %d), want %d", par, i, len(got), cap(got), len(want))
			}
			for j := range want {
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("par=%d answer %d: digest %d differs", par, i, j)
				}
			}
		}
	}
}

// verifyBatch is what a verifier does with a batch, minus its memory of
// earlier ones: Jobs, then the scheme's batched verification.
func verifyBatch(scheme sigagg.Scheme, pub sigagg.PublicKey, answers []*Answer, par int) error {
	jobs, err := Jobs(answers, par)
	if err != nil {
		return err
	}
	return sigagg.NewPool(scheme, par).VerifyAll(pub, jobs)
}

func TestVerifyBatchAcceptsValidAnswers(t *testing.T) {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	answers := []*Answer{
		signedAnswer(t, scheme, priv, 1000, 8),
		signedAnswer(t, scheme, priv, 5000, 1),
		signedAnswer(t, scheme, priv, 9000, 40),
	}
	for _, par := range []int{1, 4} {
		if err := verifyBatch(scheme, pub, answers, par); err != nil {
			t.Fatalf("par=%d: valid batch rejected: %v", par, err)
		}
	}
	if err := verifyBatch(scheme, pub, nil, 4); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

func TestVerifyBatchRejectsTamperedAnswer(t *testing.T) {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() []*Answer {
		return []*Answer{
			signedAnswer(t, scheme, priv, 1000, 8),
			signedAnswer(t, scheme, priv, 5000, 12),
		}
	}

	// Tampered record content.
	answers := fresh()
	answers[1].Records[3].Attrs = [][]byte{[]byte("forged")}
	if err := verifyBatch(scheme, pub, answers, 4); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("tampered record: want ErrVerify, got %v", err)
	}

	// Dropped record (completeness violation caught by the signature).
	answers = fresh()
	answers[0].Records = append(answers[0].Records[:2], answers[0].Records[3:]...)
	if err := verifyBatch(scheme, pub, answers, 4); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped record: want ErrVerify, got %v", err)
	}

	// Structural violation: boundary inside the range.
	answers = fresh()
	answers[0].Left.Key = answers[0].Lo
	if err := verifyBatch(scheme, pub, answers, 4); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("bad boundary: want ErrVerify, got %v", err)
	}

	// Nil member.
	answers = fresh()
	answers[1] = nil
	if err := verifyBatch(scheme, pub, answers, 4); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("nil answer: want ErrVerify, got %v", err)
	}
}

// TestVerifyBatchMatchesVerify: a batch of one is exactly Verify.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	a := signedAnswer(t, scheme, priv, 1000, 5)
	if err := Verify(scheme, pub, a); err != nil {
		t.Fatal(err)
	}
	if err := verifyBatch(scheme, pub, []*Answer{a}, 2); err != nil {
		t.Fatal(err)
	}
}
