// Trading: the paper's motivating scenario (§1). A data aggregator
// streams live price updates through an untrusted query server; every
// ρ = 1s it publishes a certified update summary. Users verify that the
// prices they receive are authentic, complete AND fresh — a server
// replaying yesterday's quote is caught.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg/bas"
)

func main() {
	cfg := core.Config{Rho: 1_000, RhoPrime: 60_000} // ms
	sys, err := core.NewSystem(bas.New(0), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Seed the exchange feed: 500 instruments keyed by instrument id.
	const nInstruments = 500
	records := make([]*core.Record, nInstruments)
	for i := range records {
		records[i] = &core.Record{
			Key:   int64(i + 1),
			Attrs: [][]byte{price(100 + rand.Float64()*100)},
		}
	}
	msg, err := sys.DA.Load(records, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		log.Fatal(err)
	}

	// A stale answer the compromised server will replay later.
	staleAnswer, err := sys.QS.Query(42, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Stream 10 seconds of market activity: ~50 price ticks per second,
	// one certified summary per ρ-period. Updates are disseminated
	// IMMEDIATELY (the headline property of §3.1) — they never wait for
	// the next summary.
	rng := rand.New(rand.NewSource(42))
	now := int64(0)
	updates := 0
	for period := 1; period <= 10; period++ {
		for tick := 0; tick < 50; tick++ {
			// 20 ms between ticks, the last one 10 ms before the period
			// closes: a close must come after every update it covers.
			now = int64(period-1)*1_000 + int64(tick)*20 + 10
			key := int64(rng.Intn(nInstruments) + 1)
			if period == 3 && tick == 0 {
				key = 42 // make sure the replayed instrument really ticks
			}
			upd, err := sys.DA.Update(key, [][]byte{price(100 + rng.Float64()*100)}, now)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.Deliver(upd); err != nil {
				log.Fatal(err)
			}
			updates++
		}
		now = int64(period) * 1_000
		summary, err := sys.DA.ClosePeriod(now)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Deliver(summary); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%2ds  published summary #%d (%d bytes compressed)\n",
			period, summary.Summary.Seq, len(summary.Summary.Compressed))
	}
	fmt.Printf("streamed %d price updates across 10 summary periods\n\n", updates)

	// A user logs in, fetches the summary history, and queries a band of
	// instruments.
	for _, s := range sys.QS.SummariesSince(0) {
		if err := sys.Verifier.IngestSummary(s); err != nil {
			log.Fatal(err)
		}
	}
	ans, err := sys.QS.Query(40, 60)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.Verifier.VerifyAnswer(ans, 40, 60, now+100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified %d live quotes; staleness bound %d ms (ρ=%d, 2ρ for last-period signatures)\n",
		len(ans.Chain.Records), report.MaxStaleness, cfg.Rho)

	// The compromised server replays the pre-stream quote for
	// instrument 42. The certified summaries expose it.
	_, err = sys.Verifier.VerifyAnswer(staleAnswer, 42, 42, now+100)
	if errors.Is(err, freshness.ErrStale) {
		fmt.Printf("replayed stale quote rejected: %v\n", err)
	} else {
		log.Fatalf("BUG: stale quote not flagged (err=%v)", err)
	}
}

func price(p float64) []byte {
	return []byte(fmt.Sprintf("%.2f", p))
}
