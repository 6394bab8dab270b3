package main

import (
	"fmt"
	"math/rand"

	"authdb/internal/digest"
	"authdb/internal/repro/sigcache"
	"authdb/internal/repro/sim"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

// runFig10 regenerates Figure 10: overall response time versus SigCache
// size, for the Eager and Lazy maintenance strategies at Upd% = 10 and
// 40. A live sigcache.Cache (zero-cost scheme) is driven inside the
// discrete-event simulation; its counted aggregation operations convert
// to CPU time through the measured ECC point-addition cost, so the lazy
// strategy's coalescing of repeated invalidations shows up exactly as
// it would with real signatures.
func runFig10(args []string) error {
	fs := newFlags("fig10")
	logN := fs.Int("logn", 20, "log2 of the relation size (paper: 20)")
	rate := fs.Float64("rate", 140, "arrival rate, jobs/s (paper: 50 at its heavily-loaded point; our faster ECC ops need a higher rate to reach the same knee)")
	dur := fs.Float64("dur", 20, "simulated seconds per point")
	ioMS := fs.Float64("io", 1, "modelled ms per page I/O")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := 1 << *logN
	card := n / 1000 // sf = 1e-3 range transactions

	// Measured crypto costs for the conversion.
	crypto, err := measureScheme(bas.New(bas.DefaultPairingCost))
	if err != nil {
		return err
	}
	opSec := crypto.AddOp.Seconds()
	signSec := crypto.Sign.Seconds()

	// Leaf signatures under the zero-cost scheme.
	scheme := xortest.New()
	priv, _, err := scheme.KeyGen(nil)
	if err != nil {
		return err
	}
	leaves := make([]sigagg.Signature, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("f10-%d", i)))
		leaves[i], err = scheme.Sign(priv, d[:])
		if err != nil {
			return err
		}
	}

	// Query cardinality distribution: uniform in [card/2, 3card/2].
	dist := func(q int) float64 {
		if q >= card/2 && q <= 3*card/2 {
			return 1
		}
		return 0
	}
	analyzer, err := sigcache.NewAnalyzer(n, dist)
	if err != nil {
		return err
	}

	sigBytes := bas.New(0).SignatureSize()
	pairCounts := []int{0, 16, 64, 256, 1024}
	fmt.Printf("N=%d, sf=1e-3 (card≈%d), rate=%.0f jobs/s, ECC op=%.3fms, sign=%.2fms\n",
		n, card, *rate, opSec*1000, signSec*1000)
	fmt.Println("paper reference: a 40-KB cache cuts response ~30%; Lazy >= Eager throughout,")
	fmt.Println("with the gap widening at Upd%=40. The srv-side column excludes the fixed")
	fmt.Println("last-mile transmission latency (~300ms for a 0.5MB answer at 14.4 Mbps),")
	fmt.Println("which caching cannot touch.")

	for _, updFrac := range []float64{0.10, 0.40} {
		fmt.Printf("\nUpd%% = %.0f%%\n", updFrac*100)
		fmt.Printf("  %10s %10s | %29s | %29s\n", "", "", "eager (ms)", "lazy (ms)")
		fmt.Printf("  %10s %10s | %9s %9s %9s | %9s %9s %9s\n",
			"pairs", "cache(KB)", "query", "srv-side", "update", "query", "srv-side", "update")
		for _, pairs := range pairCounts {
			var nodes []sigcache.Node
			if pairs > 0 {
				nodes = analyzer.Select(pairs).Nodes
			}
			var line [6]float64
			for si, strat := range []sigcache.Strategy{sigcache.Eager, sigcache.Lazy} {
				cache, err := sigcache.NewCache(scheme, leaves, strat)
				if err != nil {
					return err
				}
				if err := cache.Pin(nodes); err != nil {
					return err
				}
				q, qsrv, u := runCacheWorkload(cache, n, card, *rate, updFrac, *dur, opSec, signSec, *ioMS/1000)
				line[si*3] = q * 1000
				line[si*3+1] = qsrv * 1000
				line[si*3+2] = u * 1000
			}
			fmt.Printf("  %10d %10.1f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
				pairs, float64(len(nodes)*sigBytes)/1024,
				line[0], line[1], line[2], line[3], line[4], line[5])
		}
	}
	return nil
}

// runCacheWorkload simulates the mixed workload against a live cache
// and returns mean (query, update) response times in seconds.
func runCacheWorkload(cache *sigcache.Cache, n, card int, rate, updFrac, dur, opSec, signSec, ioSec float64) (qTotal, qServer, uTotal float64) {
	eng := sim.NewEngine()
	cpu := sim.NewServer(eng, 4)
	disk := sim.NewServer(eng, 2)
	lanDelay := func(bytes int) float64 { return float64(bytes) * 8 / 14.4e6 }
	locks := sim.NewLockTable(eng, 4096)
	rng := rand.New(rand.NewSource(99))
	var qStats, uStats sim.Stats

	newSig := cache.Leaf(0).Clone()

	runQuery := func(arrive float64) {
		q := card/2 + rng.Intn(card+1)
		lo := int64(rng.Intn(n - q + 1))
		lock := locks.Lock(uint64(lo))
		lock.Acquire(false, func(float64) {
			_, ops, err := cache.AggregateRange(lo, lo+int64(q)-1)
			if err != nil {
				panic(err)
			}
			cpu.Use(float64(ops)*opSec, func(float64) {
				disk.Use(ioSec*3, func(float64) {
					lock.Release(false)
					net := lanDelay(q*512 + 64)
					eng.After(net, func() {
						qStats.Record(eng.Now()-arrive, 0, 0, net, 0)
					})
				})
			})
		})
	}
	runUpdate := func(arrive float64) {
		idx := int64(rng.Intn(n))
		lock := locks.Lock(uint64(idx))
		eng.After(signSec, func() {
			lock.Acquire(true, func(float64) {
				ops, err := cache.UpdateLeaf(idx, newSig)
				if err != nil {
					panic(err)
				}
				cpu.Use(float64(ops)*opSec+0.0002, func(float64) {
					disk.Use(ioSec*2, func(float64) {
						lock.Release(true)
						uStats.Record(eng.Now()-arrive, 0, 0, 0, 0)
					})
				})
			})
		})
	}

	for t := 0.0; t <= dur; t += rng.ExpFloat64() / rate {
		at := t
		if rng.Float64() < updFrac {
			eng.At(at, func() { runUpdate(at) })
		} else {
			eng.At(at, func() { runQuery(at) })
		}
	}
	eng.Run(dur * 20)
	return qStats.MeanResp(), qStats.MeanResp() - qStats.MeanNet(), uStats.MeanResp()
}
