// Quickstart: build an authenticated database, run a verified range
// selection, and watch tampering get caught.
//
// The three parties of the protocol are the trusted DataAggregator
// (owns the signing key), the untrusted QueryServer, and the user-side
// Verifier that holds only the aggregator's public key.
package main

import (
	"fmt"
	"log"

	"authdb/internal/core"
	"authdb/internal/sigagg/bas"
)

func main() {
	// 1. Create a one-relation catalog: one key pair, three parties. BAS
	// with the default calibrated pairing cost; use bas.New(0) for raw
	// speed.
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The aggregator loads and signs the relation, then pushes the
	// signed records to the query server.
	records := make([]*core.Record, 1000)
	for i := range records {
		records[i] = &core.Record{
			Key:   int64(i) * 10, // the indexed attribute
			Attrs: [][]byte{[]byte(fmt.Sprintf("stock-%04d", i))},
		}
	}
	msg, err := sys.DA.Load(records, 1_000 /* ms */)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d signed records onto the (untrusted) server\n", sys.QS.Len())

	// 3. Range selection with correctness proof, and the certified
	// summaries published since its oldest signature (none yet: no
	// ρ-period has closed), which the user ingests.
	ans, _, err := sys.QS.QueryStamped(2500, 2600)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range sys.QS.SummariesTail(0, ans.OldestSigTS) {
		if err := sys.Verifier.IngestSummary(s); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("query [2500,2600]: %d records, VO = %d bytes (one aggregate signature + 2 boundaries)\n",
		len(ans.Chain.Records), ans.Chain.VOSize(sys.Scheme.SignatureSize()))

	// 4. The user verifies authenticity + completeness + freshness.
	bound, err := sys.Verifier.VerifyScan(ans.Chain, 2500, 2600, 1_500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified OK; worst-case staleness bound: %d ms\n", bound)

	// 5. A compromised server tampering with a value is caught.
	evil := *ans.Chain.Records[3]
	evil.Attrs = [][]byte{[]byte("forged-price")}
	ans.Chain.Records[3] = &evil
	if _, err := sys.Verifier.VerifyScan(ans.Chain, 2500, 2600, 1_500); err != nil {
		fmt.Printf("tampered answer rejected: %v\n", err)
	} else {
		log.Fatal("BUG: tampered answer accepted")
	}

	// 6. Dropping a record (a completeness attack) is caught too.
	ans2, _, _ := sys.QS.QueryStamped(2500, 2600)
	ans2.Chain.Records = append(ans2.Chain.Records[:5:5], ans2.Chain.Records[6:]...)
	if _, err := sys.Verifier.VerifyScan(ans2.Chain, 2500, 2600, 1_500); err != nil {
		fmt.Printf("incomplete answer rejected: %v\n", err)
	} else {
		log.Fatal("BUG: incomplete answer accepted")
	}
}
