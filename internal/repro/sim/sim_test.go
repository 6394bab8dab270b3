package sim

import (
	"math/rand"
	"testing"
)

func TestEngineOrdersEvents(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.At(2, func() { order = append(order, 2) })
	eng.At(1, func() { order = append(order, 1) })
	eng.At(1, func() { order = append(order, 11) }) // same time: FIFO
	eng.At(3, func() { order = append(order, 3) })
	eng.Run(10)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if eng.Now() != 3 {
		t.Fatalf("Now = %f", eng.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.At(5, func() { fired = true })
	eng.Run(4)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if eng.Now() != 4 {
		t.Fatalf("Now = %f, want 4", eng.Now())
	}
}

func TestServerQueues(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, 1)
	var done []float64
	for i := 0; i < 3; i++ {
		srv.Use(1.0, func(w float64) { done = append(done, eng.Now()) })
	}
	eng.Run(10)
	// Jobs serialize: completions at 1, 2, 3.
	if len(done) != 3 || done[0] != 1 || done[1] != 2 || done[2] != 3 {
		t.Fatalf("completions = %v", done)
	}
}

func TestServerParallelism(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng, 2)
	var done []float64
	for i := 0; i < 4; i++ {
		srv.Use(1.0, func(w float64) { done = append(done, eng.Now()) })
	}
	eng.Run(10)
	// Two at a time: completions at 1, 1, 2, 2.
	if len(done) != 4 || done[1] != 1 || done[3] != 2 {
		t.Fatalf("completions = %v", done)
	}
	if srv.BusyTime != 4 {
		t.Fatalf("BusyTime = %f", srv.BusyTime)
	}
}

func TestRWLockSharedConcurrent(t *testing.T) {
	eng := NewEngine()
	l := NewRWLock(eng)
	granted := 0
	for i := 0; i < 3; i++ {
		l.Acquire(false, func(w float64) { granted++ })
	}
	eng.Run(1)
	if granted != 3 {
		t.Fatalf("granted = %d, want 3 concurrent readers", granted)
	}
}

func TestRWLockWriterExcludes(t *testing.T) {
	eng := NewEngine()
	l := NewRWLock(eng)
	var log []string
	l.Acquire(true, func(w float64) {
		log = append(log, "w1")
		eng.After(5, func() { l.Release(true) })
	})
	l.Acquire(false, func(w float64) {
		log = append(log, "r1")
		if eng.Now() < 5 {
			t.Errorf("reader granted at %f while writer held", eng.Now())
		}
		l.Release(false)
	})
	l.Acquire(true, func(w float64) {
		log = append(log, "w2")
		if eng.Now() < 5 {
			t.Errorf("second writer granted at %f", eng.Now())
		}
		l.Release(true)
	})
	eng.Run(100)
	if len(log) != 3 || log[0] != "w1" || log[1] != "r1" || log[2] != "w2" {
		t.Fatalf("log = %v (FIFO violated)", log)
	}
}

func TestRWLockFIFONoBarging(t *testing.T) {
	// A reader arriving after a queued writer must wait behind it.
	eng := NewEngine()
	l := NewRWLock(eng)
	var order []string
	l.Acquire(false, func(w float64) {
		eng.After(2, func() { l.Release(false) })
	})
	eng.After(0.1, func() {
		l.Acquire(true, func(w float64) {
			order = append(order, "writer")
			eng.After(1, func() { l.Release(true) })
		})
		l.Acquire(false, func(w float64) {
			order = append(order, "reader")
			l.Release(false)
		})
	})
	eng.Run(100)
	if len(order) != 2 || order[0] != "writer" {
		t.Fatalf("order = %v, want writer first", order)
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock must panic")
		}
	}()
	NewRWLock(NewEngine()).Release(true)
}

func TestLinkTransmissionTime(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, 8e6) // 8 Mbps -> 1 MB/s
	var done float64
	link.Send(1_000_000, func(w float64) { done = eng.Now() })
	eng.Run(10)
	if done < 0.99 || done > 1.01 {
		t.Fatalf("1MB over 8Mbps took %fs, want ~1s", done)
	}
}

func TestLockTableStripes(t *testing.T) {
	eng := NewEngine()
	tab := NewLockTable(eng, 8)
	if tab.Lock(3) != tab.Lock(11) {
		t.Fatal("rids 3 and 11 must share stripe 3 of 8")
	}
	if tab.Lock(3) == tab.Lock(4) {
		t.Fatal("distinct stripes expected")
	}
}

// costs returns a simple scheme cost model for workload tests.
func testCosts(rootLock bool, updCPU float64) SchemeCosts {
	return SchemeCosts{
		Name:        "test",
		QueryCPU:    func(card int) float64 { return 0.005 },
		QueryIO:     func(card int) float64 { return 0.005 },
		UpdateCPU:   updCPU,
		UpdateIO:    0.005,
		SignDelay:   0.001,
		AnswerBytes: func(card int) int { return 512 * card },
		UpdateBytes: 512,
		VerifyCPU:   func(card int) float64 { return 0.002 },
		RootLock:    rootLock,
	}
}

func TestWorkloadCompletesAllTransactions(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.ArrivalRate = 20
	cfg.Duration = 20
	res := RunWorkload(cfg, testCosts(false, 0.005))
	total := res.Query.Count + res.Update.Count
	// ~400 expected arrivals; all must complete.
	if total < 300 {
		t.Fatalf("only %d transactions completed", total)
	}
	if res.Update.Count == 0 || res.Query.Count == 0 {
		t.Fatal("both classes must appear")
	}
}

func TestRootLockSaturatesBeforeStripedLocks(t *testing.T) {
	// The core claim of Figs. 7/9: with the same service times, the
	// root-locked scheme degrades far sooner under load because every
	// update serializes the whole server.
	cfg := DefaultWorkloadConfig()
	cfg.ArrivalRate = 100
	cfg.Duration = 30
	cfg.UpdFrac = 0.20
	updCPU := 0.060 // 60ms of lock-holding update work (Table 4 magnitude)

	rooted := RunWorkload(cfg, testCosts(true, updCPU))
	striped := RunWorkload(cfg, testCosts(false, updCPU))
	if striped.Query.MeanResp() >= rooted.Query.MeanResp() {
		t.Fatalf("striped mean %.1fms not below rooted %.1fms",
			1000*striped.Query.MeanResp(), 1000*rooted.Query.MeanResp())
	}
	// The root-locked configuration should be deep in saturation: mean
	// query response at least 3x the striped one.
	if rooted.Query.MeanResp() < 3*striped.Query.MeanResp() {
		t.Fatalf("rooted %.1fms vs striped %.1fms: expected heavy contrast",
			1000*rooted.Query.MeanResp(), 1000*striped.Query.MeanResp())
	}
}

func TestResponseGrowsWithArrivalRate(t *testing.T) {
	costs := testCosts(true, 0.030)
	var prev float64
	for i, rate := range []float64{5, 40, 80} {
		cfg := DefaultWorkloadConfig()
		cfg.ArrivalRate = rate
		cfg.Duration = 30
		res := RunWorkload(cfg, costs)
		m := res.Query.MeanResp()
		if i > 0 && m < prev {
			t.Fatalf("mean response fell from %.1fms to %.1fms as rate rose",
				1000*prev, 1000*m)
		}
		prev = m
	}
}

func TestStatsBreakdownSums(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.ArrivalRate = 10
	cfg.Duration = 10
	res := RunWorkload(cfg, testCosts(false, 0.005))
	s := &res.Query
	sum := s.MeanLock() + s.MeanServe() + s.MeanNet() + s.MeanVerify()
	if s.MeanResp() < sum-1e-9 {
		t.Fatalf("mean response %.3f below breakdown sum %.3f", s.MeanResp(), sum)
	}
	// CPU+disk queuing is inside serve; response ≈ breakdown sum.
	if s.MeanResp() > sum*1.5+0.001 {
		t.Fatalf("mean response %.3f far above breakdown sum %.3f", s.MeanResp(), sum)
	}
}

func TestPoissonish(t *testing.T) {
	// Smoke: the arrival loop honours the configured rate.
	rng := rand.New(rand.NewSource(1))
	count := 0
	for t0 := 0.0; t0 < 100; t0 += rng.ExpFloat64() / 50 {
		count++
	}
	if count < 4000 || count > 6000 {
		t.Fatalf("arrivals over 100s at 50/s = %d", count)
	}
}
