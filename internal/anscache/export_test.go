package anscache

// Test-only API: what the package's tests drive the cache with beside
// the serving path (Do).

// WithShards sets the lock-domain count (rounded up to a power of two).
func WithShards(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// shardOf maps a key onto its lock domain.
func (c *Cache) shardOf(key Key) *cshard {
	return &c.shards[hash(key)&c.mask]
}

// Get returns the resident, stamp-current entry for key, acquiring a
// reference the caller must Release. A resident-but-stale entry is
// dropped (counted as an invalidation) and reported as a miss.
func (c *Cache) Get(key Key) (*Entry, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok, stale := c.lookup(sh, key)
	sh.mu.Unlock()
	if stale != nil {
		stale.Release() // the cache's residency reference
	}
	if !ok {
		return nil, false
	}
	e.hits.Add(1)
	c.hits.Add(1)
	return e, true
}

// Clear drops every resident entry, releasing the cache's residency
// references; a reader still holding an entry keeps its bytes until it
// releases them. In-flight builds are unaffected (their publications
// will re-admit). Use when detaching a cache for good.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped := make([]*Entry, 0, len(sh.entries))
		for _, e := range sh.entries {
			dropped = append(dropped, e)
		}
		for _, e := range dropped {
			sh.drop(e)
		}
		sh.mu.Unlock()
		for _, e := range dropped {
			e.Release()
		}
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Built:
		return "built"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}
