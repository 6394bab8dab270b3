// Fixtures for the nocachesign analyzer: the PR 8 BAS fast path keeps
// verifier cache state (fields named cache / tables) out of signing
// (Sign / SignBatch) and proof construction (AggregateInto / Remove and
// the Folder methods), directly and transitively.
package bas

type pointCache struct{ m map[string]int }

type tableCache struct{ m map[string]int }

type Scheme struct {
	cache  *pointCache
	tables *tableCache
}

// decodeCached is verifier-side: reading the cache here is fine.
func (s *Scheme) decodeCached(x int) int {
	if v, ok := s.cache.m["k"]; ok {
		return v
	}
	return x
}

// Remove is proof construction. Reading operands through the cache and
// caching every intermediate sum is the shape a two-operand fold had
// until aggtree stopped rebuilding through it: tens of thousands of
// garbage puts per second on a serving process.
func (s *Scheme) Remove(x int) int { // want `signer entry point reaches verifier cache state: Remove → decodeCached touches`
	return s.decodeCached(x)
}

// Add is no entry point (the schemes have no two-operand Add): no
// finding.
func (s *Scheme) Add(x int) int { return s.decodeCached(x) }

// sum is the Folder accumulator; its methods are entry points whatever
// the receiver.
type sum struct {
	s   *Scheme
	acc int
}

// Prepare decodes without the cache: no finding.
func (s *Scheme) Prepare(x int) int { return hashOnly(x) }

func (a *sum) Fold(x int) { a.acc += x }

// Merge looks the other sum's encoding up in the point cache.
func (a *sum) Merge(o *sum) { // want `signer entry point reaches verifier cache state: Merge → decodeCached touches`
	a.acc += a.s.decodeCached(o.acc)
}

// Encode inserts the finished sum into the cache directly.
func (a *sum) Encode() int { // want `signer entry point reaches verifier cache state: Encode touches`
	a.s.cache.m["sum"] = a.acc
	return a.acc
}

// Sign reaches the cache transitively through decodeCached.
func (s *Scheme) Sign(x int) int { // want `signer entry point reaches verifier cache state: Sign → decodeCached touches`
	return s.decodeCached(x)
}

// AggregateInto touches the per-key tables directly.
func (s *Scheme) AggregateInto(x int) int { // want `signer entry point reaches verifier cache state: AggregateInto touches`
	return s.tables.m["k"] + x
}

func hashOnly(x int) int { return x * 3 }

// SignBatch stays cache-free: no finding.
func (s *Scheme) SignBatch(xs []int) int {
	t := 0
	for _, x := range xs {
		t += hashOnly(x)
	}
	return t
}

// VerifyAll is the planner executor's batch-verification shape: the
// query engine fans composite-VO verification over the worker pool, and
// that path is verifier-side — reading the digest cache and per-key
// tables here is exactly what they exist for. No finding.
func (s *Scheme) VerifyAll(xs []int) int {
	t := 0
	for _, x := range xs {
		t += s.decodeCached(x) + s.tables.m["k"]
	}
	return t
}

// signThenVerify is the forbidden composition the executor must avoid:
// a signer entry point delegating to the (cache-touching) batch
// verification helper.
func (s *Scheme) Sign2(x int) int { return x } // helper so the fixture keeps one clean non-entry name

// AggregateInto2 is not an entry point; reaching VerifyAll from it is
// fine.
func (s *Scheme) AggregateInto2(xs []int) int { return s.VerifyAll(xs) }
