package sigagg_test

import (
	"bytes"
	"math/rand"
	"testing"

	"authdb/internal/repro/sigcache"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

// foldSuites are the conformance suites plus xortest: one native Folder
// (bas) and two schemes served by the AggregateInto adapter.
func foldSuites(t *testing.T) []suite {
	suites := newSuites(t)
	x := xortest.New()
	xpriv, xpub, err := x.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(suites, suite{"xortest", x, xpriv, xpub})
}

// TestFoldMatchesAggregateAndAdd: over random multisets — with the
// identity, duplicates and a signature next to its own inverse mixed in
// — folding prepared operands, folding through intermediate sums,
// AggregateInto over the whole multiset and a chain of two-operand
// AggregateInto calls all produce the same bytes.
func TestFoldMatchesAggregateAndAdd(t *testing.T) {
	for _, s := range foldSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			folder := sigagg.FolderFor(s.scheme)
			identity, err := s.scheme.AggregateInto(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			pool := []sigagg.Signature{identity}
			for _, d := range digests(12, "fold") {
				sig, err := s.scheme.Sign(s.priv, d)
				if err != nil {
					t.Fatal(err)
				}
				// The inverse of sig: what Remove adds to cancel it.
				neg, err := s.scheme.(sigcache.Remover).Remove(identity, sig)
				if err != nil {
					t.Fatal(err)
				}
				pool = append(pool, sig, neg)
			}
			ops, err := sigagg.PrepareAll(folder, pool)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(15))
			for round := 0; round < 60; round++ {
				picks := make([]int, rng.Intn(12))
				for i := range picks {
					picks[i] = rng.Intn(len(pool)) // with replacement: duplicates
				}
				if round%3 == 0 && len(picks) >= 2 {
					// Force P + (−P): pool is [identity, s0, −s0, s1, −s1, …].
					switch p := picks[0]; {
					case p == 0:
						picks[1] = 0
					case p%2 == 1:
						picks[1] = p + 1
					default:
						picks[1] = p - 1
					}
				}
				sigs := make([]sigagg.Signature, len(picks))
				for i, p := range picks {
					sigs[i] = pool[p]
				}
				want, err := s.scheme.AggregateInto(nil, sigs)
				if err != nil {
					t.Fatal(err)
				}
				chained := identity
				for _, sig := range sigs {
					if chained, err = s.scheme.AggregateInto(nil, []sigagg.Signature{chained, sig}); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(chained, want) {
					t.Fatalf("round %d: chained two-operand AggregateInto differs from one call", round)
				}
				flat := folder.NewSum()
				for _, p := range picks {
					flat.Fold(ops[p])
				}
				got, err := flat.Encode(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: fold of %v differs from Aggregate", round, picks)
				}
				// The same multiset through two partial sums merged into a
				// third, into a reused accumulator and a caller's buffer.
				cut := len(picks) / 2
				left, right := folder.NewSum(), folder.NewSum()
				for _, p := range picks[:cut] {
					left.Fold(ops[p])
				}
				for _, p := range picks[cut:] {
					right.Fold(ops[p])
				}
				flat.Reset()
				flat.Merge(left)
				flat.Merge(right)
				buf := make(sigagg.Signature, 0, s.scheme.SignatureSize())
				if got, err = flat.Encode(buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: merged partial sums differ from Aggregate", round)
				}
				if len(want) <= cap(buf) && &got[0] != &buf[:1][0] {
					t.Fatalf("round %d: Encode ignored a destination with capacity", round)
				}
			}
		})
	}
}

// TestPrepareRejectsMalformed: a bad encoding fails at Prepare, before
// anything could be stored prepared.
func TestPrepareRejectsMalformed(t *testing.T) {
	for _, s := range foldSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			folder := sigagg.FolderFor(s.scheme)
			sig, err := s.scheme.Sign(s.priv, digests(1, "bad")[0])
			if err != nil {
				t.Fatal(err)
			}
			bad := []sigagg.Signature{nil, sig[:len(sig)-1], append(sig.Clone(), 0)}
			if s.name == "bas" {
				notOnCurve := sig.Clone()
				for notOnCurve[len(notOnCurve)-1]++; ; notOnCurve[len(notOnCurve)-1]++ {
					if _, err := s.scheme.AggregateInto(nil, []sigagg.Signature{notOnCurve}); err != nil {
						break
					}
				}
				badTag := sig.Clone()
				badTag[0] = 4
				bad = append(bad, notOnCurve, badTag)
			}
			for i, b := range bad {
				if _, err := folder.Prepare(b); err == nil {
					t.Errorf("malformed encoding %d prepared", i)
				}
			}
			if _, err := sigagg.PrepareAll(folder, []sigagg.Signature{sig, bad[1]}); err == nil {
				t.Error("PrepareAll accepted a malformed member")
			}
		})
	}
}
