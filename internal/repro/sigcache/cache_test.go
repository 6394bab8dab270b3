package sigcache

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

func xorLeaves(t *testing.T, n int) (sigagg.Scheme, sigagg.PrivateKey, sigagg.PublicKey, []sigagg.Signature, [][]byte) {
	t.Helper()
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]sigagg.Signature, n)
	digests := make([][]byte, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("rec-%d", i)))
		digests[i] = d[:]
		leaves[i], err = scheme.Sign(priv, d[:])
		if err != nil {
			t.Fatal(err)
		}
	}
	return scheme, priv, pub, leaves, digests
}

func TestAggregateRangeMatchesDirect(t *testing.T) {
	scheme, _, pub, leaves, digests := xorLeaves(t, 64)
	c, err := NewCache(scheme, leaves, Eager)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{0, 63}, {5, 37}, {0, 0}, {63, 63}, {31, 32}} {
		sig, _, err := c.AggregateRange(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := scheme.AggregateVerify(pub, digests[r[0]:r[1]+1], sig); err != nil {
			t.Fatalf("range [%d,%d]: %v", r[0], r[1], err)
		}
	}
}

func TestAggregateRangeWithBAS(t *testing.T) {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	leaves := make([]sigagg.Signature, n)
	digests := make([][]byte, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("bas-%d", i)))
		digests[i] = d[:]
		leaves[i], _ = scheme.Sign(priv, d[:])
	}
	c, err := NewCache(scheme, leaves, Eager)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Pin([]Node{{Level: 2, Pos: 1}, {Level: 2, Pos: 2}}); err != nil {
		t.Fatal(err)
	}
	sig, _, err := c.AggregateRange(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.AggregateVerify(pub, digests[3:13], sig); err != nil {
		t.Fatalf("BAS cached aggregate invalid: %v", err)
	}
}

func TestCachedNodesReduceOps(t *testing.T) {
	scheme, _, _, leaves, _ := xorLeaves(t, 256)
	plain, _ := NewCache(scheme, leaves, Eager)
	cached, _ := NewCache(scheme, leaves, Eager)
	if err := cached.Pin([]Node{{Level: 6, Pos: 1}, {Level: 6, Pos: 2}}); err != nil {
		t.Fatal(err)
	}
	// A long range spanning T6,1's [64,127] block.
	_, opsPlain, _ := plain.AggregateRange(60, 130)
	_, opsCached, _ := cached.AggregateRange(60, 130)
	if opsCached >= opsPlain {
		t.Fatalf("cached ops %d not below plain %d", opsCached, opsPlain)
	}
	// Savings should be about 2^6-1 = 63 ops.
	if opsPlain-opsCached < 50 {
		t.Fatalf("savings = %d ops, want ~63", opsPlain-opsCached)
	}
	if cached.Stats().Hits == 0 {
		t.Fatal("cache hit not recorded")
	}
}

func TestOpsMatchModel(t *testing.T) {
	// Without caching, a q-leaf range costs exactly q-1 operations.
	scheme, _, _, leaves, _ := xorLeaves(t, 128)
	c, _ := NewCache(scheme, leaves, Eager)
	for _, r := range [][2]int64{{0, 0}, {10, 17}, {1, 126}, {0, 127}} {
		_, ops, err := c.AggregateRange(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := int(r[1] - r[0]); ops != want {
			t.Fatalf("range [%d,%d]: ops=%d, want %d", r[0], r[1], ops, want)
		}
	}
}

func TestUpdateLeafEager(t *testing.T) {
	scheme, priv, pub, leaves, digests := xorLeaves(t, 32)
	c, _ := NewCache(scheme, leaves, Eager)
	if err := c.Pin([]Node{{Level: 3, Pos: 0}, {Level: 4, Pos: 0}}); err != nil {
		t.Fatal(err)
	}
	d := digest.Sum([]byte("rec-5-v2"))
	newSig, _ := scheme.Sign(priv, d[:])
	ops, err := c.UpdateLeaf(5, newSig)
	if err != nil {
		t.Fatal(err)
	}
	// Two cached ancestors refreshed at 2 ops each.
	if ops != 4 {
		t.Fatalf("eager update ops = %d, want 4", ops)
	}
	digests[5] = d[:]
	sig, _, _ := c.AggregateRange(0, 7) // uses the refreshed T3,0
	if err := scheme.AggregateVerify(pub, digests[0:8], sig); err != nil {
		t.Fatalf("aggregate after eager update: %v", err)
	}
}

func TestUpdateLeafLazy(t *testing.T) {
	scheme, priv, pub, leaves, digests := xorLeaves(t, 32)
	c, _ := NewCache(scheme, leaves, Lazy)
	if err := c.Pin([]Node{{Level: 3, Pos: 0}}); err != nil {
		t.Fatal(err)
	}
	d := digest.Sum([]byte("rec-5-v2"))
	newSig, _ := scheme.Sign(priv, d[:])
	ops, err := c.UpdateLeaf(5, newSig)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 0 {
		t.Fatalf("lazy update ops = %d, want 0", ops)
	}
	digests[5] = d[:]
	sig, qops, _ := c.AggregateRange(0, 7)
	if err := scheme.AggregateVerify(pub, digests[0:8], sig); err != nil {
		t.Fatalf("aggregate after lazy refresh: %v", err)
	}
	if qops < 2 {
		t.Fatalf("lazy refresh must charge the query, got %d ops", qops)
	}
}

func TestLazyCoalescesRepeatedUpdates(t *testing.T) {
	scheme, priv, _, leaves, _ := xorLeaves(t, 32)
	c, _ := NewCache(scheme, leaves, Lazy)
	c.Pin([]Node{{Level: 3, Pos: 0}})
	for v := 0; v < 5; v++ {
		d := digest.Sum([]byte(fmt.Sprintf("rec-5-v%d", v+2)))
		sig, _ := scheme.Sign(priv, d[:])
		if _, err := c.UpdateLeaf(5, sig); err != nil {
			t.Fatal(err)
		}
	}
	// Five updates to one leaf coalesce to a single remove/add pair; the
	// query range is fully covered by the cached node, so the only work
	// is the refresh.
	_, ops, err := c.AggregateRange(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 2 {
		t.Fatalf("query ops = %d, want 2 (coalesced refresh only)", ops)
	}
}

func TestEagerRepeatedUpdatesCostMore(t *testing.T) {
	// §4.3/Fig. 10(b): under a high update ratio, eager maintenance
	// wastes work relative to lazy.
	scheme, priv, _, leaves, _ := xorLeaves(t, 64)
	eager, _ := NewCache(scheme, leaves, Eager)
	lazy, _ := NewCache(scheme, leaves, Lazy)
	nodes := []Node{{Level: 4, Pos: 0}, {Level: 4, Pos: 3}}
	eager.Pin(nodes)
	lazy.Pin(nodes)
	eager.ResetStats()
	lazy.ResetStats()
	for v := 0; v < 10; v++ {
		d := digest.Sum([]byte(fmt.Sprintf("w-%d", v)))
		sig, _ := scheme.Sign(priv, d[:])
		eager.UpdateLeaf(3, sig)
		lazy.UpdateLeaf(3, sig)
	}
	eager.AggregateRange(0, 15)
	lazy.AggregateRange(0, 15)
	e, l := eager.Stats(), lazy.Stats()
	totalE := e.QueryOps + e.RefreshOps
	totalL := l.QueryOps + l.RefreshOps
	if totalL >= totalE {
		t.Fatalf("lazy total %d not below eager %d under repeated updates", totalL, totalE)
	}
}

func TestPinUsesCachedDescendants(t *testing.T) {
	scheme, _, _, leaves, _ := xorLeaves(t, 64)
	c, _ := NewCache(scheme, leaves, Eager)
	if err := c.Pin([]Node{{Level: 4, Pos: 0}, {Level: 4, Pos: 1}}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().PinOps
	// T5,0 covers exactly T4,0 + T4,1: one combine op.
	if err := c.Pin([]Node{{Level: 5, Pos: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PinOps - before; got != 1 {
		t.Fatalf("pin of parent cost %d ops, want 1", got)
	}
}

func TestPinRejectsBadNode(t *testing.T) {
	scheme, _, _, leaves, _ := xorLeaves(t, 16)
	c, _ := NewCache(scheme, leaves, Eager)
	if err := c.Pin([]Node{{Level: 9, Pos: 0}}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := c.Pin([]Node{{Level: 2, Pos: 99}}); err == nil {
		t.Fatal("out-of-range pos accepted")
	}
}

func TestAggregateRangeBadArgs(t *testing.T) {
	scheme, _, _, leaves, _ := xorLeaves(t, 16)
	c, _ := NewCache(scheme, leaves, Eager)
	for _, r := range [][2]int64{{-1, 3}, {3, 16}, {5, 4}} {
		if _, _, err := c.AggregateRange(r[0], r[1]); err == nil {
			t.Fatalf("range [%d,%d] accepted", r[0], r[1])
		}
	}
	if _, err := c.UpdateLeaf(99, leaves[0]); err == nil {
		t.Fatal("out-of-range update accepted")
	}
}

func TestNewCacheRejectsBadLeafCount(t *testing.T) {
	scheme := xortest.New()
	if _, err := NewCache(scheme, make([]sigagg.Signature, 12), Eager); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestReviseDropsColdNodes(t *testing.T) {
	scheme, _, _, leaves, _ := xorLeaves(t, 64)
	c, _ := NewCache(scheme, leaves, Eager)
	hot := Node{Level: 4, Pos: 1}
	cold := Node{Level: 4, Pos: 2}
	c.Pin([]Node{hot, cold})
	for i := 0; i < 10; i++ {
		c.AggregateRange(16, 31) // hits hot only
	}
	c.Revise(1, 0)
	if c.Len() != 1 {
		t.Fatalf("Len after Revise = %d, want 1", c.Len())
	}
	if _, ok := c.AccessCounts()[hot]; !ok {
		t.Fatal("hot node evicted")
	}
}

func TestEndToEndSelectionPlusRuntime(t *testing.T) {
	// Select nodes analytically, pin them, and confirm the measured mean
	// ops over a random workload drops accordingly.
	const n = 1 << 12
	a, err := NewAnalyzer(n, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	sel := a.Select(8)
	scheme, _, _, leaves, _ := xorLeaves(t, n)
	plain, _ := NewCache(scheme, leaves, Eager)
	cached, _ := NewCache(scheme, leaves, Eager)
	if err := cached.Pin(sel.Nodes); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(9))
	var opsPlain, opsCached int
	for i := 0; i < 300; i++ {
		q := rng.Int63n(n) + 1
		lo := rng.Int63n(int64(n) - q + 1)
		_, p, err := plain.AggregateRange(lo, lo+q-1)
		if err != nil {
			t.Fatal(err)
		}
		_, cc, err := cached.AggregateRange(lo, lo+q-1)
		if err != nil {
			t.Fatal(err)
		}
		opsPlain += p
		opsCached += cc
	}
	if opsCached >= opsPlain {
		t.Fatalf("cached ops %d not below plain %d", opsCached, opsPlain)
	}
	measured := 1 - float64(opsCached)/float64(opsPlain)
	predicted := 1 - sel.CostAfterPair[len(sel.CostAfterPair)-1]/a.BaseCost()
	if measured < predicted-0.25 {
		t.Fatalf("measured reduction %.2f far below predicted %.2f", measured, predicted)
	}
}
