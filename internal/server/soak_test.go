package server

// Helpers the chaos and fleet soaks (and the net tests) share: the
// single-writer update stream and the client-side verification sweeps.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"authdb/internal/client"
	"authdb/internal/freshness"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/workload"
)

// Workload constants both soaks run under.
const (
	soakSF           = 0.0005 // selectivity factor of a catalog range
	soakTheta        = 1.07   // zipf exponent of the range and writer draws
	soakPipeline     = 4      // queries pipelined per batch
	soakUpdateEvery  = 2 * time.Millisecond
	soakSummaryEvery = 20 // the writer closes a ρ-period every k updates
	soakSeed         = 1
)

// startHotWriter launches the single-writer stream both soaks share:
// zipfian hot-head updates every soakUpdateEvery, a ρ-period closed every
// soakSummaryEvery updates, each message carried to the server by the
// relation's runtime — the pipeline authserve runs. ts is the soak's
// logical clock, owned exclusively by the writer until the returned stop
// function (which reports any writer error) has been called.
func startHotWriter(rt *wal.Runtime, catalog []workload.RangeQuery, seed int64, ts *int64) func() error {
	stop := make(chan struct{})
	var done sync.WaitGroup
	var werr error
	done.Add(1)
	go func() {
		defer done.Done()
		gen := workload.NewHotRangeGen(catalog, soakTheta, seed)
		tick := time.NewTicker(soakUpdateEvery)
		defer tick.Stop()
		for updates := 1; ; updates++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			q := gen.Next()
			*ts++
			msg, err := rt.DA.Update(q.Lo, [][]byte{[]byte(fmt.Sprintf("u-%d", *ts))}, *ts)
			if err != nil {
				werr = fmt.Errorf("server: writer update: %w", err)
				return
			}
			if err := rt.Deliver(msg); err != nil {
				werr = fmt.Errorf("server: writer deliver: %w", err)
				return
			}
			if updates%soakSummaryEvery == 0 {
				*ts++
				msg, err := rt.DA.ClosePeriod(*ts)
				if err != nil {
					werr = fmt.Errorf("server: close period: %w", err)
					return
				}
				if err := rt.Deliver(msg); err != nil {
					werr = fmt.Errorf("server: writer deliver summary: %w", err)
					return
				}
			}
		}
	}()
	return func() error {
		close(stop)
		done.Wait()
		return werr
	}
}

// queryWithRequery fetches and fully verifies a batch of plans. A
// freshness.ErrStale is the protocol succeeding — a certified summary
// proved an answered record has a newer version — so the client does what
// the paper's user does: re-query and verify the fresh answer. Bounded
// retries; any other failure is fatal.
func queryWithRequery(cl *client.Client, specs []*query.Spec) (verified, stale int, err error) {
	for attempt := 0; ; attempt++ {
		_, err := cl.QueryPlans(specs)
		if err == nil {
			return len(specs), stale, nil
		}
		if !errors.Is(err, freshness.ErrStale) || attempt >= 3 {
			return 0, stale, err
		}
		stale++
	}
}

// sweepCatalog fetches every catalog range over cl's session in batches
// and fully verifies each answer, re-querying on proven staleness.
func sweepCatalog(cl *client.Client, catalog []workload.RangeQuery) (verified int, err error) {
	const sweepBatch = 32
	for at := 0; at < len(catalog); at += sweepBatch {
		end := min(at+sweepBatch, len(catalog))
		specs := make([]*query.Spec, 0, end-at)
		for _, q := range catalog[at:end] {
			specs = append(specs, leaf(q.Lo, q.Hi))
		}
		n, _, err := queryWithRequery(cl, specs)
		if err != nil {
			return verified, fmt.Errorf("server: sweep batch at %d: %w", at, err)
		}
		verified += n
	}
	return verified, nil
}

// sweepRuntime is the full client-side verification sweep for a soak
// that owns a runtime and a live server over it at addr, advancing the
// soak's clock ts: a fresh verifying client fetches every catalog range
// over the socket and verifies each answer's correctness, completeness
// and freshness; then invalidating updates land (with a period close, so
// the freshness stream reflects them) and the hottest ranges are
// re-queried, requiring both the fresh record and a passing verification
// — the zero-silent-freshness-violations check.
func sweepRuntime(rt *wal.Runtime, scheme sigagg.Scheme, pub sigagg.PublicKey, addr string,
	catalog []workload.RangeQuery, ts *int64) (verified int, err error) {
	cl, err := client.Dial(addr, client.Config{Scheme: scheme, Pub: pub, DialTimeout: 5 * time.Second, VerifyWorkers: 1})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	if _, err := cl.SyncSummaries(0); err != nil {
		return 0, err
	}
	if verified, err = sweepCatalog(cl, catalog); err != nil {
		return verified, err
	}
	for i := 0; i < 8 && i < len(catalog); i++ {
		q := catalog[i]
		*ts++
		want := *ts
		msg, err := rt.DA.Update(q.Lo, [][]byte{[]byte(fmt.Sprintf("inval-%d", want))}, want)
		if err != nil {
			return verified, err
		}
		if err := rt.Deliver(msg); err != nil {
			return verified, err
		}
		*ts++
		msg, err = rt.DA.ClosePeriod(*ts)
		if err != nil {
			return verified, err
		}
		if err := rt.Deliver(msg); err != nil {
			return verified, err
		}
		ans, err := cl.QueryPlan(leaf(q.Lo, q.Hi))
		if err != nil {
			return verified, fmt.Errorf("server: post-update verify [%d,%d]: %w", q.Lo, q.Hi, err)
		}
		verified++
		// ClosePeriod may have re-certified the record again (the §3.1
		// multi-update rule), so accept any certification at or after
		// the invalidating update.
		fresh := false
		for _, r := range ans.Outer.Records {
			if r.Key == q.Lo && r.TS >= want {
				fresh = true
			}
		}
		if !fresh {
			return verified, fmt.Errorf("server: stale answer for [%d,%d] after update ts=%d", q.Lo, q.Hi, want)
		}
	}
	return verified, nil
}
