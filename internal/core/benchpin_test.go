package core

import (
	"errors"
	"reflect"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
)

// TestVerifyAnswersBatch holds the names benchpin.go keeps for the
// benchmark to the one path they wrap: Query is QueryStamped plus
// SummariesTail(0, OldestSigTS), SummariesSince is SummariesTail(0, ·),
// NewSystemWithRand is a one-relation catalog, and VerifyAnswers accepts
// and refuses what VerifyScan does — a batch with a tampered record, or
// with an answer presented for another range, is refused.
func TestVerifyAnswersBatch(t *testing.T) {
	for _, raw := range []sigagg.Scheme{bas.New(0), crsa.New(1024)} {
		t.Run(raw.Name(), func(t *testing.T) {
			sys, err := NewSystemWithRand(raw, DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Name != DefaultRelation {
				t.Fatalf("relation %q, want %q", sys.Name, DefaultRelation)
			}
			load(t, sys, 120)
			deliver := deliverOp(t, sys)
			deliver(sys.DA.ClosePeriod(1_000))
			deliver(sys.DA.Update(500, [][]byte{[]byte("v2")}, 1_100))
			deliver(sys.DA.ClosePeriod(2_000))
			if got, want := sys.QS.SummariesSince(1_500), sys.QS.SummariesTail(0, 1_500); !reflect.DeepEqual(got, want) || len(got) != 1 {
				t.Fatalf("SummariesSince(1500) = %d summaries, SummariesTail(0, 1500) = %d", len(got), len(want))
			}

			var answers []*Answer
			var ranges []Range
			for i := 0; i < 6; i++ {
				lo := int64(i*200 + 10)
				hi := lo + 150
				ans, err := sys.QS.Query(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				one, _, err := sys.QS.QueryStamped(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				one.Summaries = sys.QS.SummariesTail(0, one.OldestSigTS)
				if !reflect.DeepEqual(ans, one) || len(ans.Summaries) == 0 {
					t.Fatalf("Query(%d, %d) is not QueryStamped plus the cold tail", lo, hi)
				}
				answers = append(answers, ans)
				ranges = append(ranges, Range{Lo: lo, Hi: hi})
			}

			v, ref := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig()), NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
			bounds, err := v.VerifyAnswers(answers, ranges, 2_100)
			if err != nil {
				t.Fatalf("valid batch rejected: %v", err)
			}
			for i, ans := range answers {
				want, err := verifyScan(ref, ans, ranges[i].Lo, ranges[i].Hi, 2_100)
				if err != nil || bounds[i] != want {
					t.Fatalf("answer %d: VerifyAnswers bound %d, VerifyScan %d (%v)", i, bounds[i], want, err)
				}
			}

			// Tamper with one record in one answer.
			r := answers[3].Chain.Records[0]
			answers[3].Chain.Records[0] = &Record{RID: r.RID, Key: r.Key, Attrs: [][]byte{[]byte("forged")}, TS: r.TS}
			if _, err := v.VerifyAnswers(answers, ranges, 2_100); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("tampered batch: want ErrVerify, got %v", err)
			}
			if _, err := ref.VerifyScan(answers[3].Chain, ranges[3].Lo, ranges[3].Hi, 2_100); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("tampered answer: VerifyScan wants ErrVerify, got %v", err)
			}
			// Range mismatch.
			answers[3].Chain.Records[0] = r
			ranges[3] = Range{Lo: 1, Hi: 2}
			if _, err := v.VerifyAnswers(answers, ranges, 2_100); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("range mismatch: want ErrVerify, got %v", err)
			}
			if _, err := ref.VerifyScan(answers[3].Chain, ranges[3].Lo, ranges[3].Hi, 2_100); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("range mismatch: VerifyScan wants ErrVerify, got %v", err)
			}
		})
	}
}
