package main

import (
	"fmt"
	"math/rand"

	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

// runFig8 regenerates Figure 8: per-period compressed summary size and
// average signature age versus the renewal age ρ', and the total
// summary volume a user needs for a freshness check (per-summary size ×
// summaries spanning the average signature age). The crypto scheme is
// irrelevant to these sizes, so the zero-cost test scheme drives the
// periods; the update stream follows the Table 2 defaults (10% of 50
// jobs/s = 5 updates/s against N records).
func runFig8(args []string) error {
	fs := newFlags("fig8")
	n := fs.Int("n", 1_000_000, "relation size")
	updRate := fs.Float64("updrate", 5, "record updates per second")
	periods := fs.Int("periods", 0, "simulated ρ-periods per point (0 = auto: 4x the renewal cycle)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Println("paper reference: total summary bottoms out at ~171 KB (ρ=1s, ρ'=900s);")
	fmt.Println("per-period summaries average ~375 bytes.")
	fmt.Println()

	for _, rho := range []float64{0.5, 1.0} {
		fmt.Printf("ρ = %.1f s (N=%d, %.0f updates/s)\n", rho, *n, *updRate)
		fmt.Printf("  %10s %14s %14s %16s\n", "ρ'(xρ)", "bitmap (KB)", "sig age (s)", "total summ (KB)")
		for _, mult := range []int{128, 256, 512, 768, 1024} {
			p := *periods
			if p == 0 {
				p = 4 * mult
				if p < 2000 {
					p = 2000
				}
			}
			bm, age, total := simulateSummaries(*n, rho, mult, *updRate, p)
			fmt.Printf("  %10d %14.2f %14.1f %16.1f\n", mult, bm/1024, age, total/1024)
		}
		fmt.Println()
	}
	return nil
}

// simulateSummaries runs the DA's summary/renewal processes in steady
// state and reports (mean per-period compressed bytes, mean signature
// age in seconds, total summary bytes for a freshness check).
func simulateSummaries(n int, rho float64, rhoPrimeMult int, updRate float64, periods int) (bmBytes, sigAge, totalBytes float64) {
	scheme := xortest.New()
	priv, _, err := scheme.KeyGen(nil)
	if err != nil {
		panic(err)
	}
	// Time unit: milliseconds.
	rhoMS := int64(rho * 1000)
	rhoPrime := int64(rhoPrimeMult) * rhoMS
	pub := freshness.NewPublisher(func(d []byte) (sigagg.Signature, error) { return scheme.Sign(priv, d) }, n, 0)
	rng := rand.New(rand.NewSource(3))

	certTS := make([]int64, n) // all certified at t=0
	// The renewal process: to keep every signature younger than ρ', it
	// must cover N records every ρ' — i.e. N·ρ/ρ' records per period —
	// walking the relation cyclically (§3.1's low-priority process).
	renewPerPeriod := max(1, int(float64(n)*float64(rhoMS)/float64(rhoPrime)))
	updPerPeriod := updRate * rho

	cursor := 0
	var sumBytes float64
	warmup := periods / 2
	samples := 0
	now := int64(0)
	for p := 1; p <= periods; p++ {
		now += rhoMS
		// Random record updates.
		k := int(updPerPeriod)
		if rng.Float64() < updPerPeriod-float64(k) {
			k++
		}
		for i := 0; i < k; i++ {
			slot := rng.Intn(n)
			certTS[slot] = now
			pub.MarkUpdated(slot)
		}
		// Renewal sweep: back every ρ', so a ρ'-old signature is due.
		for i := 0; i < renewPerPeriod; i++ {
			if now-certTS[cursor] >= rhoPrime {
				certTS[cursor] = now
				pub.MarkUpdated(cursor)
			}
			cursor = (cursor + 1) % n
		}
		s, _, err := pub.Next(now)
		if err == nil {
			_, _, err = pub.ReplaySummary(s)
		}
		if err != nil {
			panic(err)
		}
		if p > warmup {
			sumBytes += float64(len(s.Compressed))
			samples++
		}
	}
	// Mean signature age by sampling.
	const ageSamples = 10000
	var ageSum float64
	for i := 0; i < ageSamples; i++ {
		ageSum += float64(now - certTS[rng.Intn(n)])
	}
	bmBytes = sumBytes / float64(samples)
	sigAge = ageSum / ageSamples / 1000
	// A user must hold the summaries spanning the mean signature age.
	summariesNeeded := sigAge / rho
	totalBytes = bmBytes * summariesNeeded
	return bmBytes, sigAge, totalBytes
}
