package main

import (
	"fmt"
	"math/rand"

	"authdb/internal/repro/sim"
)

// runFig7 regenerates Figure 7: overall response time (query and
// update) versus transaction arrival rate for point operations
// (sf = 1e-6), EMB- versus BAS, plus the breakdown chart of Fig. 7(b).
// Service times are calibrated on really built structures (see
// buildTestbed); locking, CPU/disk queuing and networks are simulated.
func runFig7(args []string) error {
	return runArrivalSweep("fig7", args, 1,
		[]float64{10, 25, 50, 75, 100, 120},
		"paper: EMB- saturates at ~50 jobs/s; BAS scales to ~120 jobs/s")
}

// runFig9 regenerates Figure 9: the same sweep for range operations
// (sf = 1e-3).
func runFig9(args []string) error {
	return runArrivalSweep("fig9", args, -1, // -1 -> n/1000 at runtime
		[]float64{5, 10, 20, 30, 45, 60},
		"paper: EMB- saturates at ~10 jobs/s; BAS exceeds 45 jobs/s")
}

func runArrivalSweep(name string, args []string, card int, rates []float64, note string) error {
	fs := newFlags(name)
	n := fs.Int("n", 100_000, "relation size (paper: 1M)")
	ioMS := fs.Float64("io", 5, "modelled ms per page I/O")
	dur := fs.Float64("dur", 30, "seconds of simulated arrivals per point")
	upd := fs.Float64("upd", 0.10, "update fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if card < 0 {
		card = *n / 1000
	}
	tb, err := buildTestbed(*n, *ioMS)
	if err != nil {
		return err
	}
	embCosts, err := tb.measureEMB(card)
	if err != nil {
		return err
	}
	basCosts, err := tb.measureBAS(card)
	if err != nil {
		return err
	}

	mk := func(label string, c opCosts, rootLock bool) sim.SchemeCosts {
		return sim.SchemeCosts{
			Name:        label,
			QueryCPU:    func(int) float64 { return c.queryCPU.Seconds() },
			QueryIO:     func(int) float64 { return c.queryIO.Seconds() },
			UpdateCPU:   c.updateCPU.Seconds(),
			UpdateIO:    c.updateIO.Seconds(),
			SignDelay:   c.signDelay.Seconds(),
			AnswerBytes: func(cd int) int { return cd*512 + c.voBytes },
			UpdateBytes: 512 + 64,
			VerifyCPU:   func(int) float64 { return c.verify.Seconds() },
			RootLock:    rootLock,
		}
	}
	schemes := []sim.SchemeCosts{
		mk("EMB-", embCosts, true),
		mk("BAS", basCosts, false),
	}

	fmt.Printf("\n%s — card=%d, Upd%%=%.0f%%, N=%d (%s)\n", name, card, *upd*100, *n, note)
	fmt.Printf("%10s | %24s | %24s\n", "", "EMB- (ms)", "BAS (ms)")
	fmt.Printf("%10s | %11s %12s | %11s %12s\n", "jobs/sec", "query", "update", "query", "update")
	results := map[string]map[float64]sim.Result{}
	for _, sc := range schemes {
		results[sc.Name] = map[float64]sim.Result{}
	}
	for _, rate := range rates {
		row := fmt.Sprintf("%10.0f |", rate)
		for _, sc := range schemes {
			cfg := sim.DefaultWorkloadConfig()
			cfg.ArrivalRate = rate
			cfg.UpdFrac = *upd
			cfg.Duration = *dur
			cfg.Cardinality = func(*rand.Rand) int { return card }
			res := sim.RunWorkload(cfg, sc)
			results[sc.Name][rate] = res
			row += fmt.Sprintf(" %11.1f %12.1f ", 1000*res.Query.MeanResp(), 1000*res.Update.MeanResp())
			if sc.Name == "EMB-" {
				row += "|"
			}
		}
		fmt.Println(row)
	}

	// Breakdown at a light and a heavy rate (the Fig. 7(b)/9(b) bars).
	fmt.Println("\nquery response breakdown (ms):")
	fmt.Printf("%10s %8s | %8s %8s %8s %8s\n",
		"scheme", "rate", "locking", "serving", "network", "verify")
	for _, sc := range schemes {
		for _, rate := range []float64{rates[0], rates[len(rates)-1]} {
			r := results[sc.Name][rate].Query
			fmt.Printf("%10s %8.0f | %8.1f %8.1f %8.1f %8.1f\n",
				sc.Name, rate, 1000*r.MeanLock(), 1000*r.MeanServe(),
				1000*r.MeanNet(), 1000*r.MeanVerify())
		}
	}
	return nil
}
