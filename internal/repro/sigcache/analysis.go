// Package sigcache implements SigCache (Section 4): selective caching of
// aggregate signatures over the conceptual binary signature tree of a
// relation, to cut the query server's proof-construction cost.
//
// The analysis half (this file) computes, for every tree node Ti,j, the
// probability P(Ti,j) that a uniformly-placed range query of random
// cardinality derives its aggregate from that node (§4.1's ξ formulas),
// and runs Algorithm 1's greedy utility selection with the mirror-node
// optimization. The naive evaluation of P is O(N) per node — infeasible
// at N=10^6 — so we reduce each node to O(1) prefix-sum lookups over the
// q-ranges where ξ is constant or linear in q.
package sigcache

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a query-cardinality distribution: Dist(q) is proportional to
// the probability that a query has cardinality q, for 1 <= q <= N.
type Dist func(q int) float64

// Harmonic is the paper's skewed distribution P(q) = (1/q) / H_N,
// favouring short queries.
func Harmonic(q int) float64 { return 1 / float64(q) }

// Uniform makes all cardinalities equally likely.
func Uniform(q int) float64 { return 1 }

// Analyzer evaluates node-usage probabilities for a relation of N
// records (N a power of two) under a cardinality distribution.
type Analyzer struct {
	n      int
	levels int       // log2(n)
	p      []float64 // p[q], normalized, 1-indexed
	s0     []float64 // s0[q] = sum_{t<=q} p[t]/(n-t+1)
	s1     []float64 // s1[q] = sum_{t<=q} t*p[t]/(n-t+1)
	base   float64   // expected ops without caching: sum (q-1) p[q]
}

// NewAnalyzer builds the prefix sums for a relation of n records
// (n must be a power of two, matching §4.1's simplifying assumption).
func NewAnalyzer(n int, dist Dist) (*Analyzer, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("sigcache: N must be a power of two >= 2, got %d", n)
	}
	a := &Analyzer{
		n:      n,
		levels: int(math.Round(math.Log2(float64(n)))),
		p:      make([]float64, n+1),
		s0:     make([]float64, n+1),
		s1:     make([]float64, n+1),
	}
	var total float64
	for q := 1; q <= n; q++ {
		v := dist(q)
		if v < 0 {
			return nil, fmt.Errorf("sigcache: negative weight at q=%d", q)
		}
		a.p[q] = v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("sigcache: zero distribution")
	}
	for q := 1; q <= n; q++ {
		a.p[q] /= total
		w := a.p[q] / float64(n-q+1)
		a.s0[q] = a.s0[q-1] + w
		a.s1[q] = a.s1[q-1] + float64(q)*w
		a.base += float64(q-1) * a.p[q]
	}
	return a, nil
}

// N returns the relation size.
func (a *Analyzer) N() int { return a.n }

// Levels returns log2(N), the root level.
func (a *Analyzer) Levels() int { return a.levels }

// BaseCost is the expected number of aggregation operations per query
// with no caching: Σ (q-1)·P(q) (line 6 of Algorithm 1).
func (a *Analyzer) BaseCost() float64 { return a.base }

// sum0 returns Σ_{q=lo..hi} p[q]/(n-q+1), clamped to [1, n].
func (a *Analyzer) sum0(lo, hi int) float64 {
	if lo < 1 {
		lo = 1
	}
	if hi > a.n {
		hi = a.n
	}
	if lo > hi {
		return 0
	}
	return a.s0[hi] - a.s0[lo-1]
}

// sum1 returns Σ_{q=lo..hi} q·p[q]/(n-q+1), clamped.
func (a *Analyzer) sum1(lo, hi int) float64 {
	if lo < 1 {
		lo = 1
	}
	if hi > a.n {
		hi = a.n
	}
	if lo > hi {
		return 0
	}
	return a.s1[hi] - a.s1[lo-1]
}

// Prob returns P(Ti,j) = Σ_q P(Ti,j | q)·P(q) with
// P(Ti,j | q) = ξ(Ti,j | q)/(N-q+1), evaluated in O(1) from the
// closed-form q-ranges of §4.1.
func (a *Analyzer) Prob(node Node) float64 {
	i, j := node.Level, node.Pos
	if i < 0 || i > a.levels {
		return 0
	}
	c := 1 << i          // 2^i
	J := int64(a.n) >> i // positions in this level
	if j < 0 || j >= J {
		return 0
	}
	var prob float64

	// Case A: 2^i <= q < 2^{i+1}. Interior nodes serve q-2^i+1 query
	// placements; edge nodes serve one.
	hiA := 2*c - 1
	if 0 < j && j < J-1 {
		// Σ (q - c + 1)·w(q) = sum1 + (1-c)·sum0
		prob += a.sum1(c, hiA) + float64(1-c)*a.sum0(c, hiA)
	} else {
		prob += a.sum0(c, hiA)
	}

	// Case B: q >= 2^{i+1}. The node serves 2^i placements while the
	// query is long enough to keep the node interior to its span, then a
	// linearly shrinking count, then none.
	if 2*c <= a.n {
		var aa int64 // the paper's threshold multiplier
		if j%2 == 1 {
			aa = J - j
		} else {
			aa = j + 1
		}
		if aa >= 2 {
			constHi := aa * int64(c)
			prob += float64(c) * a.sum0(2*c, int(constHi))
			linLo, linHi := constHi+1, (aa+1)*int64(c)-1
			// ξ = c + a·c - q on the linear stretch.
			prob += float64(int64(c)+constHi)*a.sum0(int(linLo), int(linHi)) -
				a.sum1(int(linLo), int(linHi))
		}
	}
	return prob
}

// Xi returns ξ(Ti,j | q), the number of cardinality-q queries whose
// aggregate derivation uses the node — the raw §4.1 formulas, used to
// cross-check Prob in tests.
func (a *Analyzer) Xi(node Node, q int) int64 {
	i, j := node.Level, node.Pos
	c := int64(1) << i
	J := int64(a.n) >> i
	qq := int64(q)
	switch {
	case qq < c:
		return 0
	case qq < 2*c:
		if 0 < j && j < J-1 {
			return qq - c + 1
		}
		return 1
	default:
		var aa int64
		if j%2 == 1 {
			aa = J - j
		} else {
			aa = j + 1
		}
		switch {
		case aa >= (qq+c-1)/c: // a >= ceil(q/c)
			return c
		case qq/c == aa && aa < (qq+c-1)/c:
			return c - qq + (qq/c)*c
		default:
			return 0
		}
	}
}

// ProbNaive evaluates P(Ti,j) by direct summation over q; O(N), used to
// validate the closed form in tests.
func (a *Analyzer) ProbNaive(node Node) float64 {
	var prob float64
	for q := 1; q <= a.n; q++ {
		prob += float64(a.Xi(node, q)) / float64(a.n-q+1) * a.p[q]
	}
	return prob
}

// Mirror returns the node's mirror Ti,{J-1-j}, which has identical
// probability, savings and utility by symmetry.
func (a *Analyzer) Mirror(node Node) Node {
	J := int64(a.n) >> node.Level
	return Node{Level: node.Level, Pos: J - 1 - node.Pos}
}

// Selection is the outcome of Algorithm 1.
type Selection struct {
	// Nodes lists the cached nodes in caching order (mirror pairs
	// adjacent; the self-mirrored root appears once).
	Nodes []Node
	// CostAfterPair[k] is the expected per-query aggregation cost after
	// the first k+1 pairs are cached; CostAfterPair[len-1] is the final
	// cost. BaseCost() is the zero-cache reference.
	CostAfterPair []float64
}

// Select runs Algorithm 1: nodes are ranked by initial utility
// u = P(Ti,j)·(2^i - 1); caching a node reduces its ancestors' savings;
// a candidate that would raise the expected cost (because cached
// ancestors lose more utility than the candidate adds) is discarded.
// Only the left half of each level is evaluated — mirrors are cached
// automatically. Selection stops after maxPairs cached pairs or when
// candidates are exhausted.
func (a *Analyzer) Select(maxPairs int) *Selection {
	type cand struct {
		node Node
		util float64
	}
	var cands []cand
	for i := 1; i <= a.levels; i++ {
		J := int64(a.n) >> i
		half := (J + 1) / 2
		c := float64(int64(1)<<i) - 1
		for j := int64(0); j < half; j++ {
			n := Node{Level: i, Pos: j}
			if u := a.Prob(n) * c; u > 0 {
				cands = append(cands, cand{n, u})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool { return cands[x].util > cands[y].util })

	savings := map[Node]float64{}
	getS := func(n Node) float64 {
		if s, ok := savings[n]; ok {
			return s
		}
		return float64(int64(1)<<n.Level) - 1
	}
	cached := map[Node]bool{}
	probMemo := map[Node]float64{}
	getP := func(n Node) float64 {
		if p, ok := probMemo[n]; ok {
			return p
		}
		p := a.Prob(n)
		probMemo[n] = p
		return p
	}
	ancestors := func(n Node) []Node {
		var out []Node
		for l, pos := n.Level+1, n.Pos>>1; l <= a.levels; l, pos = l+1, pos>>1 {
			out = append(out, Node{Level: l, Pos: pos})
		}
		return out
	}
	// tryCache applies the caching of one node and returns the utility
	// delta plus an undo closure.
	tryCache := func(n Node) (float64, func()) {
		s := getS(n)
		delta := getP(n) * s
		ancs := ancestors(n)
		for _, an := range ancs {
			if cached[an] {
				delta -= getP(an) * s
			}
			savings[an] = getS(an) - s
		}
		cached[n] = true
		return delta, func() {
			delete(cached, n)
			for _, an := range ancs {
				savings[an] = getS(an) + s
			}
		}
	}

	sel := &Selection{}
	sumU := 0.0
	for _, cd := range cands {
		if maxPairs > 0 && len(sel.CostAfterPair) >= maxPairs {
			break
		}
		if cached[cd.node] {
			continue
		}
		d1, undo1 := tryCache(cd.node)
		mirror := a.Mirror(cd.node)
		d2 := 0.0
		undo2 := func() {}
		if mirror != cd.node && !cached[mirror] {
			d2, undo2 = tryCache(mirror)
		}
		if d1+d2 <= 1e-18 {
			undo2()
			undo1()
			continue
		}
		sumU += d1 + d2
		sel.Nodes = append(sel.Nodes, cd.node)
		if mirror != cd.node {
			sel.Nodes = append(sel.Nodes, mirror)
		}
		sel.CostAfterPair = append(sel.CostAfterPair, a.base-sumU)
	}
	return sel
}
