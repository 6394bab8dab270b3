// Remote serving walkthrough: the paper's actual deployment model over
// a real TCP socket. An untrusted publishing server (core.QueryServer
// behind server.NetServer) answers range selections for a remote
// verifying client (internal/client) that trusts only the data
// aggregator's public key: it recomputes every chain digest,
// batch-verifies the aggregates, and tracks the certified freshness
// summary stream — then watches an update land and proves the old
// answer stale.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
)

func main() {
	// 1. The trusted aggregator signs the relation and pushes it to the
	// untrusted query server, which fronts it with the answer cache.
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	records := make([]*core.Record, 2000)
	for i := range records {
		records[i] = &core.Record{
			Key:   int64(i) * 10,
			Attrs: [][]byte{[]byte(fmt.Sprintf("holding-%04d", i))},
		}
	}
	ts := int64(1000)
	msg, err := sys.DA.Load(records, ts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		log.Fatal(err)
	}
	// Close the load's ρ-period: its summary pins the loaded
	// certifications, so a later update lands in a fresh period and can
	// be pinned by that period's summary (§3.1 — a slot updated twice
	// within one period cannot be pinned by that period alone).
	ts += 500
	sum0, err := sys.DA.ClosePeriod(ts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.QS.Apply(sum0); err != nil {
		log.Fatal(err)
	}

	// 2. Expose it on a loopback TCP socket.
	srv := server.NewNetServer(sys.QS, server.NetConfig{MaxConns: 16})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("server listening on %s\n", ln.Addr())

	// 3. A remote user dials in, holding only the public key, and pulls
	// the certified summary back-history (the §3.1 log-in step).
	cl, err := client.Dial(ln.Addr().String(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SyncSummaries(0); err != nil {
		log.Fatal(err)
	}

	// 4. Pipelined verified queries: one round trip, every answer checked
	// for authenticity, completeness and freshness. A range selection is
	// the leaf plan: no projection, no join.
	specs := []*query.Spec{
		{Rel: core.DefaultRelation, Lo: 2500, Hi: 2600},
		{Rel: core.DefaultRelation, Lo: 0, Hi: 90},
		{Rel: core.DefaultRelation, Lo: 19000, Hi: 19990},
	}
	answers, err := cl.QueryPlans(specs)
	if err != nil {
		log.Fatal(err)
	}
	for i, spec := range specs {
		fmt.Printf("verified [%d,%d] over the wire: %d records, staleness bound %dms\n",
			spec.Lo, spec.Hi, len(answers[i].Outer.Records), answers[i].Staleness)
	}

	// 5. The aggregator updates a record inside the first range and
	// closes the ρ-period, certifying a summary that marks the slot.
	stale := answers[0]
	ts += 500
	upd, err := sys.DA.Update(2550, [][]byte{[]byte("updated-holding")}, ts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.QS.Apply(upd); err != nil {
		log.Fatal(err)
	}
	ts += 500
	sum, err := sys.DA.ClosePeriod(ts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.QS.Apply(sum); err != nil {
		log.Fatal(err)
	}

	// 6. Re-querying yields the fresh record, still fully verified; the
	// pre-update answer is now provably stale against the new summary.
	fresh, err := cl.QueryPlan(specs[0])
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range fresh.Outer.Records {
		if rec.Key == 2550 {
			fmt.Printf("re-query carries the update: key 2550 -> %q (certified t=%d)\n",
				rec.Attrs[0], rec.TS)
		}
	}
	// The check the client ran on it, VerifyScan, run again against the
	// certified stream (whoever relays it: every summary is signed) refuses
	// it now.
	v := core.NewVerifier(sys.Scheme, sys.Pub, core.DefaultConfig())
	for _, s := range sys.QS.SummariesTail(0, 0) {
		if err := v.IngestSummary(s); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := v.VerifyScan(stale.Outer, specs[0].Lo, specs[0].Hi, ts); errors.Is(err, freshness.ErrStale) {
		fmt.Printf("pre-update answer proven stale: %v\n", err)
	} else {
		log.Fatalf("BUG: stale answer not detected (err=%v)", err)
	}

	// 7. Graceful shutdown: drains the connection, then stops.
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("server drained: %d queries, %d summary fetches, %d bytes out\n",
		st.Requests[wire.KindPlan], st.Requests[wire.KindRelSummaries], st.BytesOut)
}
