package sigcache

import (
	"math"
	"testing"
)

func TestXiPaperExamples(t *testing.T) {
	// Section 4.1's running example: N = 16, q = 7.
	a, err := NewAnalyzer(16, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		level int
		pos   int64
		want  int64
	}{
		{3, 0, 0}, {3, 1, 0}, // 2^3 = 8 > 7: irrelevant
		{2, 0, 1}, {2, 3, 1}, // edge nodes: one query each
		{2, 1, 4}, {2, 2, 4}, // interior: q - 2^i + 1 = 4
		{1, 1, 2}, {1, 3, 2}, // odd j, first condition: 2^1
		{1, 5, 1},                          // odd j, second condition
		{1, 7, 0},                          // odd j, third condition
		{0, 11, 0}, {0, 13, 0}, {0, 15, 0}, // even-position leaves... (odd j, none)
		{1, 4, 2}, {1, 6, 2}, // even j, first condition
		{0, 8, 1}, {0, 10, 1}, {0, 12, 1}, {0, 14, 1},
		{1, 2, 1}, {0, 6, 1}, // even j, second condition
		{0, 0, 0}, {0, 2, 0}, {0, 4, 0}, {1, 0, 0}, // even j, third condition
	}
	for _, c := range cases {
		if got := a.Xi(Node{Level: c.level, Pos: c.pos}, 7); got != c.want {
			t.Errorf("ξ(T%d,%d | 7) = %d, want %d", c.level, c.pos, got, c.want)
		}
	}
}

func TestProbMatchesNaive(t *testing.T) {
	for _, dist := range []struct {
		name string
		d    Dist
	}{{"harmonic", Harmonic}, {"uniform", Uniform}} {
		t.Run(dist.name, func(t *testing.T) {
			a, err := NewAnalyzer(256, dist.d)
			if err != nil {
				t.Fatal(err)
			}
			for level := 0; level <= a.Levels(); level++ {
				J := int64(256) >> level
				for pos := int64(0); pos < J; pos++ {
					n := Node{Level: level, Pos: pos}
					got, want := a.Prob(n), a.ProbNaive(n)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("%v: closed form %.15f vs naive %.15f", n, got, want)
					}
				}
			}
		})
	}
}

func TestProbSumsToExpectedComponents(t *testing.T) {
	// Σ_{i,j} P(Ti,j)·1 counts the expected number of decomposition
	// components per query; it must be positive and at most log-squared-
	// ish. More precisely Σ_j ξ(Ti,j|q) over all nodes equals the number
	// of components used by all (N-q+1) queries of cardinality q; we
	// validate via the identity Σ_nodes P = E[#components].
	a, _ := NewAnalyzer(64, Uniform)
	var sum float64
	for level := 0; level <= a.Levels(); level++ {
		J := int64(64) >> level
		for pos := int64(0); pos < J; pos++ {
			sum += a.Prob(Node{Level: level, Pos: pos})
		}
	}
	// The canonical decomposition of any range over N=64 leaves has at
	// most 2·log2(N) = 12 components and at least 1.
	if sum < 1 || sum > 12 {
		t.Fatalf("E[#components] = %f, implausible", sum)
	}
}

func TestBaseCost(t *testing.T) {
	a, _ := NewAnalyzer(16, Uniform)
	// Uniform over q=1..16: Σ (q-1)/16 = (0+1+...+15)/16 = 7.5.
	if math.Abs(a.BaseCost()-7.5) > 1e-12 {
		t.Fatalf("BaseCost = %f, want 7.5", a.BaseCost())
	}
}

func TestMirror(t *testing.T) {
	a, _ := NewAnalyzer(16, Uniform)
	if m := a.Mirror(Node{Level: 2, Pos: 1}); m != (Node{Level: 2, Pos: 2}) {
		t.Fatalf("mirror of T2,1 = %v", m)
	}
	if m := a.Mirror(Node{Level: 4, Pos: 0}); m != (Node{Level: 4, Pos: 0}) {
		t.Fatalf("root must mirror itself, got %v", m)
	}
}

func TestMirrorProbEqual(t *testing.T) {
	a, _ := NewAnalyzer(128, Harmonic)
	for level := 1; level < a.Levels(); level++ {
		J := int64(128) >> level
		for pos := int64(0); pos < J/2; pos++ {
			n := Node{Level: level, Pos: pos}
			m := a.Mirror(n)
			if math.Abs(a.Prob(n)-a.Prob(m)) > 1e-15 {
				t.Fatalf("P(%v) != P(%v)", n, m)
			}
		}
	}
}

func TestSelectPaperN16(t *testing.T) {
	// §4.1's running example: "the most beneficial aggregate signatures
	// to cache are T2,1 and T2,2, followed by T1,1 and T1,6 ... The top
	// three signatures, T4,0, T3,0 and T3,1, are also cached." The exact
	// interleaving of the root group with the second-from-edge pairs
	// depends on the distribution; we assert the first pair and the
	// membership of the paper's full list.
	for _, dist := range []Dist{Harmonic, Uniform} {
		a, _ := NewAnalyzer(16, dist)
		sel := a.Select(6)
		if len(sel.Nodes) < 4 {
			t.Fatalf("selected %d nodes", len(sel.Nodes))
		}
		if sel.Nodes[0] != (Node{Level: 2, Pos: 1}) || sel.Nodes[1] != (Node{Level: 2, Pos: 2}) {
			t.Fatalf("first pair = %v,%v, want T2,1/T2,2", sel.Nodes[0], sel.Nodes[1])
		}
		have := map[Node]bool{}
		for _, n := range sel.Nodes {
			have[n] = true
		}
		for _, want := range []Node{
			{Level: 1, Pos: 1}, {Level: 1, Pos: 6},
			{Level: 3, Pos: 0}, {Level: 3, Pos: 1}, {Level: 4, Pos: 0},
		} {
			if !have[want] {
				t.Errorf("paper-listed node %v not selected (got %v)", want, sel.Nodes)
			}
		}
	}
}

func TestSelectSecondFromEdgePattern(t *testing.T) {
	// The paper's consistent finding: the best nodes are the second from
	// the left/right edges, from the third-highest level downwards.
	a, err := NewAnalyzer(1<<16, Harmonic)
	if err != nil {
		t.Fatal(err)
	}
	sel := a.Select(4)
	if len(sel.Nodes) < 8 {
		t.Fatalf("selected %d nodes", len(sel.Nodes))
	}
	top := a.Levels() - 2 // third-highest level
	for pair := 0; pair < 4; pair++ {
		left, right := sel.Nodes[2*pair], sel.Nodes[2*pair+1]
		wantLevel := top - pair
		if left.Level != wantLevel || left.Pos != 1 {
			t.Fatalf("pair %d left = %v, want T%d,1", pair, left, wantLevel)
		}
		J := int64(1<<16) >> wantLevel
		if right.Level != wantLevel || right.Pos != J-2 {
			t.Fatalf("pair %d right = %v, want T%d,%d", pair, right, wantLevel, J-2)
		}
	}
}

func TestSelectCostMonotone(t *testing.T) {
	a, _ := NewAnalyzer(1<<14, Uniform)
	sel := a.Select(10)
	prev := a.BaseCost()
	for k, cost := range sel.CostAfterPair {
		if cost >= prev {
			t.Fatalf("cost after pair %d = %f, not below %f", k, cost, prev)
		}
		prev = cost
	}
}

func TestSelectReductionMatchesFig6Shape(t *testing.T) {
	// Fig. 6: eight cached pairs cut proof construction by 57% (skewed)
	// and 75% (uniform) at N=2^20. At N=2^16 the same order of reduction
	// must hold.
	aH, _ := NewAnalyzer(1<<16, Harmonic)
	selH := aH.Select(8)
	reductionH := 1 - selH.CostAfterPair[len(selH.CostAfterPair)-1]/aH.BaseCost()
	if reductionH < 0.40 {
		t.Fatalf("harmonic reduction with 8 pairs = %.2f, want >= 0.40", reductionH)
	}
	aU, _ := NewAnalyzer(1<<16, Uniform)
	selU := aU.Select(8)
	reductionU := 1 - selU.CostAfterPair[len(selU.CostAfterPair)-1]/aU.BaseCost()
	if reductionU < 0.60 {
		t.Fatalf("uniform reduction with 8 pairs = %.2f, want >= 0.60", reductionU)
	}
	// Uniform (long queries) benefits more than harmonic (short queries).
	if reductionU <= reductionH {
		t.Fatalf("uniform reduction %.2f should exceed harmonic %.2f", reductionU, reductionH)
	}
}

func TestNewAnalyzerRejectsBadInput(t *testing.T) {
	if _, err := NewAnalyzer(12, Uniform); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := NewAnalyzer(0, Uniform); err == nil {
		t.Fatal("zero accepted")
	}
	if _, err := NewAnalyzer(8, func(q int) float64 { return 0 }); err == nil {
		t.Fatal("zero distribution accepted")
	}
	if _, err := NewAnalyzer(8, func(q int) float64 { return -1 }); err == nil {
		t.Fatal("negative distribution accepted")
	}
}

func TestNodeSpan(t *testing.T) {
	lo, hi := (Node{Level: 2, Pos: 1}).Span()
	if lo != 4 || hi != 7 {
		t.Fatalf("span = [%d,%d], want [4,7]", lo, hi)
	}
	lo, hi = (Node{Level: 0, Pos: 9}).Span()
	if lo != 9 || hi != 9 {
		t.Fatalf("leaf span = [%d,%d]", lo, hi)
	}
}
