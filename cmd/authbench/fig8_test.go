package main

import "testing"

// TestFig8SummarySizes: the two quantities Fig. 8 plots, at a quick size.
// A period's summary costs at most 3 bytes per slot it marks — a record
// update or a renewal — plus its length and count fields, whatever the
// relation's size; and renewing every signature once per ρ′ keeps the
// mean signature age below ρ′, so that age grows with ρ′.
func TestFig8SummarySizes(t *testing.T) {
	const (
		n       = 100_000
		rho     = 1.0 // s
		updRate = 5.0 // updates per s
		periods = 400
	)
	var prevAge float64
	for _, mult := range []int{128, 512} {
		bytes, age, _ := simulateSummaries(n, rho, mult, updRate, periods)
		rhoPrime := float64(mult) * rho
		marks := updRate*rho + n*rho/rhoPrime // updates + renewals per period
		t.Logf("ρ′ = %dρ: %.0f B per period for ≤ %.0f marks, mean signature age %.1f s", mult, bytes, marks, age)
		if bound := 3*marks + 16; bytes > bound {
			t.Errorf("ρ′ = %dρ: %.0f B per period, over %.0f B", mult, bytes, bound)
		}
		if age >= rhoPrime {
			t.Errorf("ρ′ = %dρ: mean signature age %.1f s, not under ρ′ = %.0f s", mult, age, rhoPrime)
		}
		if age <= prevAge {
			t.Errorf("ρ′ = %dρ: mean signature age %.1f s, not above %.1f s at the shorter ρ′", mult, age, prevAge)
		}
		prevAge = age
	}
}
