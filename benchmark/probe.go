package main

import (
	"fmt"
	"math/big"
	"sync"
	"time"
)

// The sandbox this benchmark runs in does not run at one speed: its two
// virtual cores share physical cores with other tenants, and a fixed
// compute kernel takes anything from 1× to 2× its best time depending on
// what the neighbours do, in phases that last from a second to many
// minutes. Ten runs of unchanged code therefore disagree by 15–30 % on
// every wall-clock figure, which no window length or percentile removes.
//
// speedProbe measures that speed while the benchmark runs: every few
// milliseconds one goroutine times a small fixed big-integer kernel —
// the kind of arithmetic that dominates signing and verification — on
// whichever core is free. The kernel calls nothing in this repository and
// touches a few hundred bytes, so a change to the system under test moves
// the timings and not the probe. It costs about 2 % of one core.
//
// Nothing is hard-coded about the host: the reference is the fastest the
// kernel ran during this very run, the machine undisturbed. One sample's
// speed is that best time over the sample's time (1 = undisturbed, near 0 =
// the sample sat out a pre-emption), and the speed of a phase is the mean
// of its samples' speeds — the share of the undisturbed machine the phase
// actually got. (Best time over the median kernel time, which an earlier
// version used, does not see a core taken away for milliseconds — that
// hits few samples, each hard — and was half as steady on plan_join;
// README has the comparison.) The gated end-to-end timings are reported at
// the host's undisturbed speed (time × speed, rate ÷ speed); the raw
// wall-clock figures and the speeds are printed beside them and reported
// as per-layer metrics.
type speedProbe struct {
	mu   sync.Mutex
	at   []time.Time
	dur  []time.Duration
	stop chan struct{}
	done chan struct{}
}

const (
	probeEvery = 5 * time.Millisecond
	// probeMinSamples is the fewest kernel timings a phase's speed may rest
	// on. A phase with fewer fails the run: a figure left uncorrected among
	// corrected ones would be on another scale.
	probeMinSamples = 10
)

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *speedProbe) run() {
	defer close(p.done)
	mod, _ := new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	base, _ := new(big.Int).SetString("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296", 16)
	exp := new(big.Int).Sub(mod, big.NewInt(2))
	z := new(big.Int)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		for i := 0; i < 4; i++ {
			z.Exp(base, exp, mod)
		}
		d := time.Since(t0)
		p.mu.Lock()
		p.at = append(p.at, t0)
		p.dur = append(p.dur, d)
		p.mu.Unlock()
	}
}

// close stops the probe goroutine and waits for it.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// speeds turns the samples taken so far into a function giving the
// machine's speed over [from, to) relative to the fastest the kernel ran
// in the whole run. Call it when the run's timed phases are over.
func (p *speedProbe) speeds() func(from, to time.Time) (float64, error) {
	p.mu.Lock()
	at, dur := p.at, p.dur
	p.mu.Unlock()
	best := time.Duration(0)
	for _, d := range dur {
		if best == 0 || d < best {
			best = d
		}
	}
	return func(from, to time.Time) (float64, error) {
		var sum float64
		n := 0
		for i, t := range at {
			if !t.Before(from) && t.Before(to) {
				sum += float64(best) / float64(dur[i])
				n++
			}
		}
		if n < probeMinSamples {
			return 0, fmt.Errorf("speed probe: %d samples in a %v phase, need %d", n, to.Sub(from), probeMinSamples)
		}
		return sum / float64(n), nil
	}
}
