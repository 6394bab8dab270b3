package sigagg

import (
	"runtime"
	"sync"
)

// Pool fans signing and verification work across a bounded set of
// goroutines, each worker's chunk one call of the scheme's batch
// primitives (SignBatch / VerifyJobs). A Pool is immutable and safe for
// concurrent use; it holds no goroutines between calls.
type Pool struct {
	scheme Scheme
	par    int
}

// minChunk is the smallest per-worker slice of work worth a goroutine:
// below this the spawn/synchronization overhead exceeds the signing
// cost it parallelizes.
const minChunk = 16

// NewPool creates a pool over the (bound) scheme with at most par
// concurrent workers. par <= 0 selects GOMAXPROCS.
func NewPool(scheme Scheme, par int) *Pool {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &Pool{scheme: scheme, par: par}
}

// ForChunks runs fn over [0, n) split into contiguous chunks across up
// to workers goroutines, inline when one worker (or fewer than two
// minChunk-sized chunks of work) remains. fn must be safe for
// concurrent calls on disjoint ranges; the first error wins and is
// returned after all workers finish. It is the one fan-out primitive
// behind the signing pool, batch verification and parallel digest
// recomputation.
func ForChunks(n, workers, minChunk int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		return fn(0, n)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := fn(lo, hi); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// Scheme returns the scheme the pool signs and verifies under.
func (p *Pool) Scheme() Scheme { return p.scheme }

// Workers returns the pool's bound on concurrent workers, for a caller
// that fans out its own preparation of the pool's input (ForChunks).
func (p *Pool) Workers() int { return p.par }

// Sign produces one signature through the scheme's batch path (e.g.
// CRT signing for condensed RSA), so that even single messages —
// summary certifications, individual record updates — get the fast
// number-theoretic path.
func (p *Pool) Sign(priv PrivateKey, digest []byte) (Signature, error) {
	sigs, err := p.scheme.SignBatch(priv, [][]byte{digest})
	if err != nil {
		return nil, err
	}
	return sigs[0], nil
}

// SignIndexed signs the n digests produced by digest(0..n-1), fanning
// both digest production and signing across the workers — callers hand
// over a generator (e.g. a chained-record digest computation) instead
// of materializing every message up front on one goroutine. digest must
// be safe to call concurrently for distinct indices.
func (p *Pool) SignIndexed(priv PrivateKey, n int, digest func(i int) []byte) ([]Signature, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]Signature, n)
	err := ForChunks(n, p.par, minChunk, func(lo, hi int) error {
		digests := make([][]byte, hi-lo)
		for i := range digests {
			digests[i] = digest(lo + i)
		}
		sigs, err := p.scheme.SignBatch(priv, digests)
		copy(out[lo:hi], sigs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyAll checks every job, fanning chunks across the workers and
// using the scheme's batched verification per chunk. An error means at
// least one job failed; batch semantics do not attribute the failure to
// a specific job (see Scheme.VerifyJobs), so callers needing the
// culprit re-verify job by job with AggregateVerify.
func (p *Pool) VerifyAll(pub PublicKey, jobs []VerifyJob) error {
	return ForChunks(len(jobs), p.par, 1, func(lo, hi int) error {
		return p.scheme.VerifyJobs(pub, jobs[lo:hi])
	})
}
