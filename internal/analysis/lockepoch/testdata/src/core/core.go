// Fixtures for the lockepoch analyzer: epoch counters (fields named
// epochs / filterEpoch) may only Add under a structurally-held write lock,
// and may never Store. badBump is the historical shape the PR 3 cache
// design guards against: a bump outside the critical section lets a
// reader stamp an answer with a stale epoch and revalidate it forever.
package core

import (
	"sync"
	"sync/atomic"

	"anscache"
)

type QS struct {
	mu      sync.RWMutex
	shardMu []sync.RWMutex
	epochs  []atomic.Uint64

	routing     sync.Mutex
	filter      atomic.Pointer[int]
	filterEpoch atomic.Uint64
}

func (qs *QS) goodBump(i int) {
	qs.shardMu[i].Lock()
	qs.epochs[i].Add(1)
	qs.shardMu[i].Unlock()
}

func (qs *QS) goodDeferredBump() {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.filterEpoch.Add(1)
}

func (qs *QS) badBump(i int) {
	qs.epochs[i].Add(1) // want `advanced outside a write-lock critical section`
}

func (qs *QS) badStore() {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.epochs[0].Store(42) // want `epochs is a monotonic epoch counter`
}

func (qs *QS) lockAll()   { qs.mu.Lock() }
func (qs *QS) unlockAll() { qs.mu.Unlock() }

// helperBump acquires through a same-package helper; the analyzer
// applies the helper's net lock effect.
func (qs *QS) helperBump() {
	qs.lockAll()
	qs.filterEpoch.Add(1)
	qs.unlockAll()
}

// loopBump is the lock-every-touched-shard pattern: locks acquired
// inside one loop are still held in the next.
func (qs *QS) loopBump(touched []int) {
	for _, i := range touched {
		qs.shardMu[i].Lock()
	}
	for _, i := range touched {
		qs.epochs[i].Add(1)
	}
	for _, i := range touched {
		qs.shardMu[i].Unlock()
	}
}

// annotatedBump documents that its caller holds the shard lock.
//
//authlint:locked caller holds the shard write lock
func (qs *QS) annotatedBump(i int) {
	qs.epochs[i].Add(1)
}

// unlockThenBump releases before bumping: the held set is empty again.
func (qs *QS) unlockThenBump() {
	qs.mu.Lock()
	qs.mu.Unlock()
	qs.filterEpoch.Add(1) // want `advanced outside a write-lock critical section`
}

// goodFilterInstall is the one way a re-certified filter is published:
// pointer stored, then the epoch advanced, under the lock that serializes
// updates.
func (qs *QS) goodFilterInstall(fc *int) {
	qs.routing.Lock()
	defer qs.routing.Unlock()
	qs.filter.Store(fc) // not an epoch: Store is how a pointer is published
	qs.filterEpoch.Add(1)
}

// badFilterReset rewinds the epoch with the filter: an answer stamped under
// an earlier filter at the same count would validate again.
func (qs *QS) badFilterReset() {
	qs.routing.Lock()
	defer qs.routing.Unlock()
	qs.filter.Store(nil)
	qs.filterEpoch.Store(0) // want `filterEpoch is a monotonic epoch counter`
}

// goodStamp is the one place a counter's address may go: a stamp's Read,
// which only loads it.
func (qs *QS) goodStamp(st *anscache.Stamp, i int) {
	st.Read(&qs.epochs[i])
	st.Read(&qs.filterEpoch)
}

// badEscape advances a counter through a pointer, where the Add check
// cannot see it.
func (qs *QS) badEscape(i int) {
	p := &qs.epochs[i] // want `address of epochs taken outside \(\*anscache.Stamp\).Read`
	p.Add(1)
}
