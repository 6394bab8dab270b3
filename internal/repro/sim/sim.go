// Package sim is a discrete-event simulator for the query-server
// experiments of Section 5 (Figures 7, 9 and 10): Poisson transaction
// arrivals served by a multi-core CPU, two-phase locking (the EMB-tree's
// exclusive root lock versus the signature-aggregation index's
// record-level locks), and bandwidth-limited WAN/LAN links. CPU service
// times are supplied by a CostModel calibrated from real measured
// operations, matching the paper's setup where only the networks are
// simulated.
package sim

import (
	"container/heap"
	"fmt"
)

// Engine is the event loop; time is in seconds.
type Engine struct {
	now   float64
	queue eventHeap
	seq   uint64 // tie-break for deterministic ordering
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (>= now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn after a delay.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queue empties or time exceeds until.
func (e *Engine) Run(until float64) {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(event)
		if ev.at > until {
			e.now = until
			return
		}
		e.now = ev.at
		ev.fn()
	}
}

// Server is a k-server FIFO resource (e.g. a quad-core CPU or a network
// link with k=1): jobs occupy one server for their service time, queuing
// when all servers are busy.
type Server struct {
	eng     *Engine
	k       int
	busy    int
	waiting []job
	// BusyTime accumulates server-seconds of service for utilization
	// accounting.
	BusyTime float64
}

type job struct {
	d    float64
	then func(waited float64)
	at   float64
}

// NewServer creates a k-server resource on the engine.
func NewServer(eng *Engine, k int) *Server {
	if k < 1 {
		k = 1
	}
	return &Server{eng: eng, k: k}
}

// Use requests d seconds of service; then runs on completion with the
// time spent queuing (not serving).
func (s *Server) Use(d float64, then func(waited float64)) {
	if s.busy < s.k {
		s.start(job{d: d, then: then, at: s.eng.now})
		return
	}
	s.waiting = append(s.waiting, job{d: d, then: then, at: s.eng.now})
}

func (s *Server) start(j job) {
	s.busy++
	waited := s.eng.now - j.at
	s.BusyTime += j.d
	s.eng.After(j.d, func() {
		s.busy--
		if len(s.waiting) > 0 {
			next := s.waiting[0]
			s.waiting = s.waiting[1:]
			s.start(next)
		}
		j.then(waited)
	})
}

// RWLock is a FIFO reader-writer lock in virtual time: the EMB-tree's
// root lock (updates exclusive, queries shared) and, hashed over record
// IDs, the record-level locks of the signature-aggregation scheme.
type RWLock struct {
	eng     *Engine
	readers int
	writer  bool
	queue   []lockReq
}

type lockReq struct {
	exclusive bool
	then      func(waited float64)
	at        float64
}

// NewRWLock creates a lock on the engine.
func NewRWLock(eng *Engine) *RWLock { return &RWLock{eng: eng} }

// Acquire requests the lock; then runs when granted, with the queuing
// time. Grants are strictly FIFO (no reader barging), so writers are not
// starved — matching a fair 2PL lock manager.
func (l *RWLock) Acquire(exclusive bool, then func(waited float64)) {
	l.queue = append(l.queue, lockReq{exclusive: exclusive, then: then, at: l.eng.now})
	l.grant()
}

func (l *RWLock) grant() {
	for len(l.queue) > 0 {
		head := l.queue[0]
		if head.exclusive {
			if l.readers > 0 || l.writer {
				return
			}
			l.writer = true
		} else {
			if l.writer {
				return
			}
			l.readers++
		}
		l.queue = l.queue[1:]
		waited := l.eng.now - head.at
		// Run the grant through the event queue to keep FIFO determinism.
		l.eng.After(0, func() { head.then(waited) })
	}
}

// Release returns the lock.
func (l *RWLock) Release(exclusive bool) {
	if exclusive {
		if !l.writer {
			panic("sim: releasing unheld exclusive lock")
		}
		l.writer = false
	} else {
		if l.readers <= 0 {
			panic("sim: releasing unheld shared lock")
		}
		l.readers--
	}
	l.grant()
}

// LockTable hashes record identifiers over a fixed pool of RWLocks,
// modelling per-record locking with bounded state.
type LockTable struct {
	locks []*RWLock
}

// NewLockTable creates a table with n lock stripes.
func NewLockTable(eng *Engine, n int) *LockTable {
	t := &LockTable{locks: make([]*RWLock, n)}
	for i := range t.locks {
		t.locks[i] = NewRWLock(eng)
	}
	return t
}

// Lock returns the stripe for a record id.
func (t *LockTable) Lock(rid uint64) *RWLock {
	return t.locks[rid%uint64(len(t.locks))]
}

// Link is a bandwidth-limited network queue: transmitting b bytes takes
// 8b/bandwidth seconds of link occupancy.
type Link struct {
	srv *Server
	bps float64
}

// NewLink creates a link with the given bandwidth in bits per second.
func NewLink(eng *Engine, bps float64) *Link {
	return &Link{srv: NewServer(eng, 1), bps: bps}
}

// Send transmits the payload; then runs on delivery with queuing time.
func (l *Link) Send(bytes int, then func(waited float64)) {
	d := float64(bytes) * 8 / l.bps
	l.srv.Use(d, then)
}

// Stats aggregates per-transaction outcomes.
type Stats struct {
	Count       int
	TotalResp   float64
	TotalLock   float64
	TotalServe  float64
	TotalNet    float64
	TotalVerify float64
	MaxResp     float64
}

// Record accumulates one transaction.
func (s *Stats) Record(resp, lock, serve, net, verify float64) {
	s.Count++
	s.TotalResp += resp
	s.TotalLock += lock
	s.TotalServe += serve
	s.TotalNet += net
	s.TotalVerify += verify
	if resp > s.MaxResp {
		s.MaxResp = resp
	}
}

// MeanResp returns the mean response time in seconds.
func (s *Stats) MeanResp() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalResp / float64(s.Count)
}

// Mean breakdown accessors (seconds).
func (s *Stats) MeanLock() float64   { return safeDiv(s.TotalLock, s.Count) }
func (s *Stats) MeanServe() float64  { return safeDiv(s.TotalServe, s.Count) }
func (s *Stats) MeanNet() float64    { return safeDiv(s.TotalNet, s.Count) }
func (s *Stats) MeanVerify() float64 { return safeDiv(s.TotalVerify, s.Count) }

func safeDiv(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// String formats the stats in milliseconds.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.1fms (lock=%.1f serve=%.1f net=%.1f verify=%.1f) max=%.1fms",
		s.Count, 1000*s.MeanResp(), 1000*s.MeanLock(), 1000*s.MeanServe(),
		1000*s.MeanNet(), 1000*s.MeanVerify(), 1000*s.MaxResp)
}
