package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct int
	}{
		{1000, 99}, // exactly 10 beyond p99
		{999, 95},  // 9 beyond p99 → fall back
		{200, 95},  // exactly 10 beyond p95
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{0, 50},
	} {
		pct, v := tailPercentile(seq(tc.n))
		if pct != tc.wantPct {
			t.Errorf("n=%d: reported p%d, want p%d", tc.n, pct, tc.wantPct)
		}
		if beyond := float64(tc.n) - v; tc.n > 0 && pct != 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%d = %v leaves only %v samples beyond", tc.n, pct, v, beyond)
		}
	}
}

func TestSubWindowMedianIgnoresOneStalledWindow(t *testing.T) {
	// Six 1 s sub-windows, 100 events each of weight 8, except a stall in
	// the third: the median rate is the steady rate, the mean is not.
	var ends []time.Duration
	var weight []int
	for w := 0; w < 6; w++ {
		n := 100
		if w == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ends = append(ends, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			weight = append(weight, 8)
		}
	}
	// A completion past the window's end belongs to the last sub-window.
	ends, weight = append(ends, 6*time.Second+time.Millisecond), append(weight, 8)
	rates := subWindowRates(ends, weight, 6*time.Second, 6)
	if rates[2] != 80 || rates[0] != 800 || rates[5] != 808 {
		t.Fatalf("rates = %v", rates)
	}
	if got := median(rates); got != 800 {
		t.Fatalf("median of sub-window rates = %v, want 800", got)
	}
}

func TestDueTimeLatencyChargesTheStallToLaterOperations(t *testing.T) {
	start := time.Unix(0, 0)
	p := newPacer(start, 1000) // one per millisecond
	due0, due1, due2 := p.next(), p.next(), p.next()
	if due1.Sub(due0) != time.Millisecond || due2.Sub(start) != 2*time.Millisecond {
		t.Fatalf("schedule drifted: %v %v %v", due0, due1, due2)
	}
	// Operation 0 stalls for 5 ms; operation 1 itself takes 100 µs but
	// could only start when 0 finished.
	started := due0.Add(5 * time.Millisecond)
	lat, late := dueLatency(due1, started, started.Add(100*time.Microsecond))
	if late != 4*time.Millisecond || lat != 4100*time.Microsecond {
		t.Fatalf("latency %v lateness %v, want 4.1ms and 4ms", lat, late)
	}
	// A generator running ahead of schedule is not late.
	if _, late := dueLatency(due2, due2.Add(-time.Microsecond), due2); late != 0 {
		t.Fatalf("lateness %v for an early start", late)
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := worseBy("lower", 100, 112); !near(got, 0.12) {
		t.Errorf("lower-is-better 100→112: %v", got)
	}
	if got := worseBy("higher", 100, 88); !near(got, 0.12) {
		t.Errorf("higher-is-better 100→88: %v", got)
	}
	if got := worseBy("higher", 100, 130); got >= 0 {
		t.Errorf("an improvement reads as worse: %v", got)
	}
	// The comparison the driver makes: worse by more than the bound fails.
	m := metricSpec{Name: "answers_per_s", Better: "higher", Bound: 0.10}
	if worseBy(m.Better, 5000, 4600) > m.Bound {
		t.Errorf("8%% worse exceeds a 10%% bound")
	}
	if worseBy(m.Better, 5000, 4400) <= m.Bound {
		t.Errorf("12%% worse passes a 10%% bound")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(seq(10)); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	b.spans = []span{
		{ID: 1, Parent: 0, Req: 1, Name: "request", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Req: 1, Name: "client.fetch", StartNS: 10, EndNS: 310},
		{ID: 3, Parent: 1, Req: 1, Name: "client.verify", StartNS: 320, EndNS: 980},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(tr.all()) {
		got[lt.Name] = lt
	}
	if got["request"].Self != 40 || got["request"].Total != 1000 {
		t.Errorf("request: %+v", got["request"])
	}
	if got["client.verify"].Self != 660 || got["client.fetch"].Self != 300 {
		t.Errorf("children: %+v %+v", got["client.fetch"], got["client.verify"])
	}
	sp := b.begin(spanRef{}, "update")
	child := b.begin(sp, "wal.append")
	if b.spans[child.idx].Req != sp.id || b.spans[child.idx].Parent != sp.id {
		t.Errorf("child span does not carry its operation's id: %+v", b.spans[child.idx])
	}
}
