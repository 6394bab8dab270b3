package sigcache

import (
	"fmt"
	"sync"

	"authdb/internal/sigagg"
)

// Strategy selects how cached aggregates are maintained under updates
// (§4.3).
type Strategy int

const (
	// Eager refreshes every affected cached aggregate inside the update,
	// by adding the inverse of the old leaf signature and the new one.
	Eager Strategy = iota
	// Lazy invalidates affected aggregates and refreshes them on first
	// use, coalescing repeated updates to the same leaf.
	Lazy
)

func (s Strategy) String() string {
	if s == Lazy {
		return "lazy"
	}
	return "eager"
}

func (s Strategy) policy() RefreshPolicy {
	if s == Lazy {
		return LazyRefresh
	}
	return EagerRefresh
}

// Stats counts the cache's work in aggregation-equivalent operations
// (each Add/Remove/combine is one ECC-addition-cost operation, the unit
// of §4.1's savings model).
type Stats struct {
	QueryOps   uint64 // ops spent building query aggregates
	RefreshOps uint64 // ops spent refreshing cached aggregates
	PinOps     uint64 // ops spent materializing pinned aggregates
	Hits       uint64 // cached aggregates used by queries
	Queries    uint64
	Updates    uint64
}

// Cache holds the leaf signatures of a relation (in indexed-attribute
// position order) plus a set of pinned aggregate signatures, and builds
// range aggregates using the cheapest available cover. The tree
// mechanics live in Frontier (frontier.go); Cache adds the paper's
// policies (Algorithm 1 selection via Analyzer, §4.2 admission and
// revision) and the cost accounting.
type Cache struct {
	mu       sync.Mutex // serializes all operations: lazy refreshes mutate on the query path
	frontier *Frontier
	strategy Strategy
	stats    Stats
}

// NewCache creates a cache over the given leaf signatures (length a
// power of two); the scheme must be a Remover.
func NewCache(scheme sigagg.Scheme, leaves []sigagg.Signature, strategy Strategy) (*Cache, error) {
	f, err := NewFrontier(scheme, leaves, strategy.policy())
	if err != nil {
		return nil, fmt.Errorf("sigcache: %w", err)
	}
	return &Cache{frontier: f, strategy: strategy}, nil
}

// N returns the number of leaves.
func (c *Cache) N() int64 { return c.frontier.N() }

// Stats returns a snapshot of the accumulated counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// Len returns the number of pinned aggregates.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frontier.PinnedCount()
}

// Pin materializes and pins the aggregate signatures for the given
// nodes (typically an Analyzer.Select result). Nodes are computed using
// previously pinned descendants where possible, so pin order matters
// only for the one-off materialization cost.
func (c *Cache) Pin(nodes []Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		ops, refreshOps, err := c.frontier.Pin(n)
		c.stats.PinOps += uint64(ops)
		c.stats.RefreshOps += uint64(refreshOps)
		if err != nil {
			return fmt.Errorf("sigcache: %w", err)
		}
	}
	return nil
}

// Unpin drops a pinned aggregate.
func (c *Cache) Unpin(n Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frontier.Unpin(n)
}

// AggregateRange builds the aggregate signature over leaves [lo, hi]
// (inclusive), using pinned aggregates where they help. It returns the
// signature and the number of aggregation operations spent (the §4
// cost unit).
func (c *Cache) AggregateRange(lo, hi int64) (sigagg.Signature, int, error) {
	if lo < 0 || hi >= c.frontier.N() || lo > hi {
		return nil, 0, fmt.Errorf("sigcache: bad range [%d,%d] over %d leaves", lo, hi, c.frontier.N())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Queries++
	sig, st, err := c.frontier.Cover(lo, hi, true)
	if err != nil {
		return nil, 0, err
	}
	c.stats.QueryOps += uint64(st.Ops)
	c.stats.RefreshOps += uint64(st.RefreshOps)
	c.stats.Hits += uint64(st.Hits)
	return sig, st.Ops, nil
}

// UpdateLeaf installs a new signature for leaf idx and maintains the
// affected cached aggregates per the configured strategy. It returns
// the aggregation operations spent inside the update (zero under Lazy).
func (c *Cache) UpdateLeaf(idx int64, sig sigagg.Signature) (int, error) {
	if idx < 0 || idx >= c.frontier.N() {
		return 0, fmt.Errorf("sigcache: leaf %d out of range", idx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Updates++
	ops, staleOps, err := c.frontier.UpdateLeaf(idx, sig)
	c.stats.RefreshOps += uint64(ops + staleOps)
	return ops, err
}

// Leaf returns the current signature of leaf idx.
func (c *Cache) Leaf(idx int64) sigagg.Signature {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frontier.Leaf(idx)
}

// AccessCounts returns the per-node access counters, for the adaptive
// revision of §4.2.
func (c *Cache) AccessCounts() map[Node]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := c.frontier.Accesses()
	out := make(map[Node]uint64, len(acc))
	for _, na := range acc {
		out[na.Node] = na.Count
	}
	return out
}

// Revise drops the pinned aggregates whose access counts fall below
// minAccesses, keeping at most maxNodes of the most-accessed ones —
// the periodic cache revision of §4.2 restricted to the cached set.
func (c *Cache) Revise(minAccesses uint64, maxNodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := c.frontier.Accesses()
	// Selection by access count, descending.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].Count > all[j-1].Count; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	for i, x := range all {
		if x.Count < minAccesses || (maxNodes > 0 && i >= maxNodes) {
			c.frontier.Unpin(x.Node)
		}
	}
	c.frontier.ResetAccesses()
}
