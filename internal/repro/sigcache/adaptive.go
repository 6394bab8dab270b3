package sigcache

import "fmt"

// This file implements the adaptive deployment of §4.2: the server
// seeds the cache from past-query statistics (EmpiricalDist feeding
// Analyzer.Select), admits aggregates computed while answering queries,
// and periodically revises the cached set from access counts
// (Cache.Revise in cache.go).

// EmpiricalDist builds a query-cardinality distribution from observed
// cardinalities. Weights are smoothed within power-of-two buckets (the
// granularity the signature tree cares about) so cardinalities near an
// observed one are not assigned zero probability, plus a vanishing
// floor that keeps the distribution proper.
func EmpiricalDist(samples []int, n int) (Dist, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("sigcache: N must be a power of two, got %d", n)
	}
	counts := make(map[int]float64, len(samples))
	bucketSum := make(map[int]float64)
	kept := 0
	for _, q := range samples {
		if q >= 1 && q <= n {
			counts[q]++
			bucketSum[bucket(q)]++
			kept++
		}
	}
	if kept == 0 {
		return nil, fmt.Errorf("sigcache: no in-range samples")
	}
	return func(q int) float64 {
		if q < 1 || q > n {
			return 0
		}
		// A quarter of each bucket's mass is spread uniformly over the
		// bucket's width, so smoothing never outweighs the real counts.
		b := bucket(q)
		width := 1 << b
		if b > 0 {
			width = 1 << (b - 1)
		}
		return counts[q] + bucketSum[b]/(4*float64(width)) + 1e-9
	}, nil
}

func bucket(q int) int {
	b := 0
	for q > 1 {
		q >>= 1
		b++
	}
	return b
}

// AutoAdmit makes the cache admit aggregates it computes while covering
// queries, for aligned blocks at or above minLevel — §4.2's "additional
// aggregate signatures that are generated to prove the query answers
// are added to the cache". Admitted entries participate in access
// counting and are pruned by Revise. Pass minLevel <= 0 to disable.
func (c *Cache) AutoAdmit(minLevel int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frontier.SetAdmitLevel(minLevel)
}
