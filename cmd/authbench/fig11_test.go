package main

import (
	"testing"

	"authdb/internal/join"
	"authdb/internal/workload"
)

// TestFig11ProofSizes: the sizes Fig. 11 prints are verified joinproof.Build
// sections, and they tell BF from BV where the paper's claim is decided.
// With no selected key held (α = 0) BF ships Bloom negatives where BV
// ships a run per key, and must be smaller; with every selected key held
// (α = 1) the filter admits them all, the runs coincide, and so do the
// sizes.
func TestFig11ProofSizes(t *testing.T) {
	e, err := newJoinEnv(workload.TPCEConfig{NR: 685, NS: 3000, IB: 342, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := e.certify(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 1} {
		ra := e.selectR(0.20, alpha, 31)
		bv, err := e.proofBytes(join.BV, ra, nil)
		if err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		bf, err := e.proofBytes(join.BF, ra, fc)
		if err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		t.Logf("α=%v over %d R.A values: BV %d B, BF %d B", alpha, len(ra), bv, bf)
		switch {
		case alpha == 0 && bf >= bv:
			t.Errorf("α=0: BF proof %d B, not under BV's %d B", bf, bv)
		case alpha == 1 && bf != bv:
			t.Errorf("α=1: BF proof %d B, BV %d B; with every key held they are the same runs", bf, bv)
		}
	}
}
