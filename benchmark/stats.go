package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// rank is the nearest-rank position ⌈p·n/100⌉ of the p-th percentile.
func rank(p, n int) int { return (p*n + 99) / 100 }

// percentile returns the p-th percentile (0 < p < 100) of ascending xs
// by nearest rank; 0 for no samples.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(p, len(sorted)), 1)-1]
}

// tailPercentile returns the highest of p99, p95, p90, p75 that has at
// least minBeyond samples beyond it, falling back to the median.
func tailPercentile(sorted []float64) (pct int, value float64) {
	for _, p := range []int{99, 95, 90, 75} {
		if len(sorted)-rank(p, len(sorted)) >= minBeyond {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the rule the driver applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is how much worse cur is than base, as a share of base, in
// the metric's direction ("lower" or "higher" is better); negative when
// cur is better.
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// subWindowRates cuts [0, window) into k equal sub-windows and returns
// the event rate (per second) of each: ends are completion offsets from
// the window start and each event carries weight[i] units. Completions
// past the window end count into the last sub-window.
func subWindowRates(ends []time.Duration, weight []int, window time.Duration, k int) []float64 {
	counts := make([]float64, k)
	sub := window / time.Duration(k)
	for i, e := range ends {
		w := int(e / sub)
		if w < 0 {
			w = 0
		}
		if w >= k {
			w = k - 1
		}
		counts[w] += float64(weight[i])
	}
	for i := range counts {
		counts[i] /= sub.Seconds()
	}
	return counts
}

// pacer is an open-loop schedule at a fixed rate: operation i is due at
// start + i·interval no matter how long earlier operations took, so a
// stall shows up as latency on every operation it delayed.
type pacer struct {
	start    time.Time
	interval time.Duration
	i        int64
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// next returns the due time of the next operation and advances.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.interval)
	p.i++
	return due
}

// dueLatency is the open-loop latency of an operation: from when it was
// due, not from when the generator got round to sending it. late is how
// far behind schedule the generator ran.
func dueLatency(due, started, done time.Time) (latency, late time.Duration) {
	late = started.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// p50us is the median of durations, in microseconds.
func p50us(ds []time.Duration) float64 { return pctUS(ds, 50) }

func pctUS(ds []time.Duration, p int) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = usOf(d)
	}
	sort.Float64s(xs)
	return percentile(xs, p)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
