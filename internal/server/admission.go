package server

import (
	"sync"
	"sync/atomic"
)

// admission is the server's overload gate: a fixed number of in-flight
// execution slots plus a bounded pending queue in front of them. A
// request that finds every slot busy takes a queue place and waits; a
// request that finds the queue full too is shed immediately — the
// caller sends ErrCodeOverloaded and moves on. Rejecting fast keeps
// latency bounded for admitted work and pushes backpressure to the
// clients (who back off and retry) instead of letting an unbounded
// queue collapse the server — and, unlike MaxConns alone, it bounds
// *work*, not connections, so a thousand mostly-idle clients coexist
// with a strict execution cap. A connection is served one request at a
// time, so it never holds more than one slot.
type admission struct {
	inflight chan struct{} // execution slots
	pending  chan struct{} // bounded waiting room
	done     chan struct{} // closed on shutdown: waiters drain out
	once     sync.Once

	shed   atomic.Uint64
	queued atomic.Uint64
}

// newAdmission builds a gate with maxInflight execution slots and
// maxPending queue places. maxInflight <= 0 disables admission control
// entirely (nil gate).
func newAdmission(maxInflight, maxPending int) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if maxPending < 0 {
		maxPending = 0
	}
	return &admission{
		inflight: make(chan struct{}, maxInflight),
		pending:  make(chan struct{}, maxPending),
		done:     make(chan struct{}),
	}
}

// acquire claims an execution slot, waiting in the bounded queue if
// necessary. It returns false when the request must be shed — the queue
// is full, or the server shut down while waiting.
func (a *admission) acquire() bool {
	if a == nil {
		return true
	}
	select {
	case a.inflight <- struct{}{}:
		return true
	default:
	}
	select {
	case a.pending <- struct{}{}:
	default:
		a.shed.Add(1)
		return false
	}
	a.queued.Add(1)
	defer func() { <-a.pending }()
	select {
	case a.inflight <- struct{}{}:
		return true
	case <-a.done:
		a.shed.Add(1)
		return false
	}
}

// release returns an execution slot.
func (a *admission) release() {
	if a != nil {
		<-a.inflight
	}
}

// close wakes queued waiters so shutdown never hangs on a full queue.
func (a *admission) close() {
	if a != nil {
		a.once.Do(func() { close(a.done) })
	}
}
