package sigcache

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

func TestEmpiricalDistFollowsSamples(t *testing.T) {
	// Short-query-heavy samples must put more probability mass on small
	// cardinalities in the resulting analyzer.
	var samples []int
	for i := 0; i < 900; i++ {
		samples = append(samples, 1+i%8) // short
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, 1000+i) // long tail
	}
	dist, err := EmpiricalDist(samples, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(1<<12, dist)
	if err != nil {
		t.Fatal(err)
	}
	// The base cost should sit near the sample mean cardinality, far
	// below the uniform mean.
	if a.BaseCost() > 300 {
		t.Fatalf("base cost %.0f does not track the short-query samples", a.BaseCost())
	}
	u, _ := NewAnalyzer(1<<12, Uniform)
	if a.BaseCost() >= u.BaseCost() {
		t.Fatal("empirical dist must differ from uniform for skewed samples")
	}
}

func TestEmpiricalDistBucketSmoothing(t *testing.T) {
	dist, err := EmpiricalDist([]int{100}, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// 100 lies in bucket [64,128): nearby cardinalities get smoothed
	// weight well above the floor.
	if dist(100) <= dist(70) {
		t.Fatal("observed cardinality must outweigh neighbours")
	}
	if dist(70) < 1000*dist(5) {
		t.Fatalf("same-bucket smoothing missing: d(70)=%g d(5)=%g", dist(70), dist(5))
	}
}

func TestEmpiricalDistErrors(t *testing.T) {
	if _, err := EmpiricalDist([]int{1}, 12); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := EmpiricalDist([]int{0, -5, 1 << 20}, 1<<10); err == nil {
		t.Fatal("no in-range samples accepted")
	}
}

func newXorCache(t *testing.T, n int, strat Strategy) (*Cache, sigagg.Scheme) {
	t.Helper()
	scheme := xortest.New()
	priv, _, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]sigagg.Signature, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("a-%d", i)))
		leaves[i], _ = scheme.Sign(priv, d[:])
	}
	c, err := NewCache(scheme, leaves, strat)
	if err != nil {
		t.Fatal(err)
	}
	return c, scheme
}

func TestAutoAdmitReusesComputedBlocks(t *testing.T) {
	c, _ := newXorCache(t, 256, Lazy)
	c.AutoAdmit(4) // admit blocks of >= 16 leaves
	// First query computes and admits the aligned blocks it covers.
	_, ops1, err := c.AggregateRange(0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no blocks admitted")
	}
	// Repeating the same query must be much cheaper.
	_, ops2, err := c.AggregateRange(0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if ops2 != 0 {
		t.Fatalf("repeat query cost %d ops, want 0 (root admitted)", ops2)
	}
	if ops1 != 255 {
		t.Fatalf("first query cost %d ops, want 255", ops1)
	}
}

func TestAutoAdmitRespectsMinLevel(t *testing.T) {
	c, _ := newXorCache(t, 64, Eager)
	c.AutoAdmit(6)          // only the root (level 6) qualifies
	c.AggregateRange(0, 31) // level-5 block: not admitted
	if c.Len() != 0 {
		t.Fatalf("admitted %d nodes below minLevel", c.Len())
	}
	c.AggregateRange(0, 63)
	if c.Len() != 1 {
		t.Fatalf("root not admitted (len=%d)", c.Len())
	}
}

func TestAutoAdmitDisabled(t *testing.T) {
	c, _ := newXorCache(t, 64, Eager)
	c.AggregateRange(0, 63)
	if c.Len() != 0 {
		t.Fatal("admission happened without AutoAdmit")
	}
}

func TestAutoAdmittedEntriesStayCorrectUnderUpdates(t *testing.T) {
	c, scheme := newXorCache(t, 128, Lazy)
	c.AutoAdmit(3)
	priv, pub, _ := scheme.KeyGen(rand.Reader)
	digests := make([][]byte, 128)
	for i := range digests {
		d := digest.Sum([]byte(fmt.Sprintf("a2-%d", i)))
		digests[i] = d[:]
		sig, _ := scheme.Sign(priv, d[:])
		if _, err := c.UpdateLeaf(int64(i), sig); err != nil {
			t.Fatal(err)
		}
	}
	c.AggregateRange(0, 127) // admit blocks
	// Update a leaf under an admitted block, then verify the aggregate.
	d := digest.Sum([]byte("a2-50-v2"))
	sig, _ := scheme.Sign(priv, d[:])
	digests[50] = d[:]
	if _, err := c.UpdateLeaf(50, sig); err != nil {
		t.Fatal(err)
	}
	agg, _, err := c.AggregateRange(0, 127)
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.AggregateVerify(pub, digests, agg); err != nil {
		t.Fatalf("admitted blocks stale after update: %v", err)
	}
}

func TestAdaptiveEndToEnd(t *testing.T) {
	// The full §4.2 loop: observe a workload, build an empirical
	// distribution, select and pin, auto-admit during serving, revise.
	const n = 1 << 12
	c, _ := newXorCache(t, n, Lazy)
	rng := mrand.New(mrand.NewSource(11))
	var observed []int
	for i := 0; i < 500; i++ {
		observed = append(observed, 256+rng.Intn(256))
	}
	dist, err := EmpiricalDist(observed, n)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(n, dist)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Pin(an.Select(8).Nodes); err != nil {
		t.Fatal(err)
	}
	c.AutoAdmit(6)
	c.ResetStats()
	var totalOps int
	for i := 0; i < 300; i++ {
		q := int64(256 + rng.Intn(256))
		lo := rng.Int63n(int64(n) - q)
		_, ops, err := c.AggregateRange(lo, lo+q-1)
		if err != nil {
			t.Fatal(err)
		}
		totalOps += ops
	}
	noCacheOps := 300 * 383 // mean (q-1)
	if totalOps >= noCacheOps {
		t.Fatalf("adaptive cache did not reduce ops: %d vs %d", totalOps, noCacheOps)
	}
	before := c.Len()
	c.Revise(5, 64)
	if c.Len() > 64 || c.Len() > before {
		t.Fatalf("Revise kept %d nodes (before %d)", c.Len(), before)
	}
}
