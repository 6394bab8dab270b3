// Command authdemo is an interactive console for the authenticated
// database: it stands up the DataAggregator / QueryServer / Verifier
// trio and lets you load, query, update and attack the database while
// watching every answer get verified.
//
// Usage:
//
//	authdemo [-scheme bas|crsa|xortest] [-n 1000]
//
// Commands (also printed at startup):
//
//	query <lo> <hi>     verified range selection
//	get <key>           verified point lookup
//	update <key> <val>  modify a record (re-signed, pushed, summarized)
//	insert <key> <val>  add a record (neighbours re-chained)
//	delete <key>        remove a record
//	tick                close the current ρ-period (publish a summary)
//	tamper <lo> <hi>    run a query and forge a value before verifying
//	stats               server statistics
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
)

func main() {
	schemeName := flag.String("scheme", "bas", "signature scheme: bas, crsa, xortest")
	n := flag.Int("n", 1000, "records to preload")
	flag.Parse()

	var scheme sigagg.Scheme
	switch *schemeName {
	case "bas":
		scheme = bas.New(0)
	case "crsa":
		scheme = crsa.New(1024)
	case "xortest":
		scheme = xortest.New()
	default:
		log.Fatalf("unknown scheme %q", *schemeName)
	}

	cat, err := core.NewCatalog(scheme, core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	recs := make([]*core.Record, *n)
	for i := range recs {
		recs[i] = &core.Record{
			Key:   int64(i+1) * 10,
			Attrs: [][]byte{[]byte(fmt.Sprintf("value-%d", i+1))},
		}
	}
	now := int64(0)
	msg, err := sys.DA.Load(recs, now)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d records (keys 10..%d) under %s; ρ=%dms\n",
		*n, *n*10, scheme.Name(), core.DefaultConfig().Rho)
	fmt.Println("commands: query <lo> <hi> | get <k> | update <k> <v> | insert <k> <v> | delete <k> | tick | tamper <lo> <hi> | stats | quit")

	deliver := func(m *core.UpdateMsg, err error) bool {
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := sys.Deliver(m); err != nil {
			fmt.Println("deliver error:", err)
			return false
		}
		return true
	}
	// scan answers [lo, hi] and hands the verifier the summaries its
	// session is owed: those past the newest it holds (the server echoes
	// that one), or since the answer's oldest signature for a session that
	// holds none.
	scan := func(lo, hi int64) (*chain.Answer, error) {
		ans, _, err := sys.QS.QueryStamped(lo, hi)
		if err != nil {
			return nil, err
		}
		tip, _ := sys.Verifier.LatestSummary()
		for _, s := range sys.QS.SummariesTail(tip.Seq, ans.OldestSigTS) {
			if s.Seq > tip.Seq {
				if err := sys.Verifier.IngestSummary(s); err != nil {
					return nil, err
				}
			}
		}
		return ans.Chain, nil
	}
	sigSize := sys.Scheme.SignatureSize() // one lookup for the whole session
	verifiedQuery := func(lo, hi int64) {
		ca, err := scan(lo, hi)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		bound, err := sys.Verifier.VerifyScan(ca, lo, hi, now)
		if err != nil {
			fmt.Println("VERIFICATION FAILED:", err)
			return
		}
		fmt.Printf("%d records, VO %dB, staleness bound %dms — verified OK\n",
			len(ca.Records), ca.VOSize(sigSize), bound)
		for _, r := range ca.Records {
			fmt.Printf("  key=%-8d rid=%-6d ts=%-8d %s\n", r.Key, r.RID, r.TS, r.Attrs[0])
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		now += 100
		switch fields[0] {
		case "query":
			if len(fields) != 3 {
				fmt.Println("usage: query <lo> <hi>")
				continue
			}
			verifiedQuery(atoi(fields[1]), atoi(fields[2]))
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			k := atoi(fields[1])
			verifiedQuery(k, k)
		case "update":
			if len(fields) != 3 {
				fmt.Println("usage: update <key> <value>")
				continue
			}
			if deliver(sys.DA.Update(atoi(fields[1]), [][]byte{[]byte(fields[2])}, now)) {
				fmt.Println("updated, re-signed and pushed")
			}
		case "insert":
			if len(fields) != 3 {
				fmt.Println("usage: insert <key> <value>")
				continue
			}
			rec := &core.Record{Key: atoi(fields[1]), Attrs: [][]byte{[]byte(fields[2])}}
			if deliver(sys.DA.Insert(rec, now)) {
				fmt.Println("inserted; neighbours re-chained")
			}
		case "delete":
			if len(fields) != 2 {
				fmt.Println("usage: delete <key>")
				continue
			}
			if deliver(sys.DA.Delete(atoi(fields[1]), now)) {
				fmt.Println("deleted; neighbours re-chained")
			}
		case "tick":
			m, err := sys.DA.ClosePeriod(now)
			if deliver(m, err) {
				fmt.Printf("summary #%d published (%d bytes compressed)\n",
					m.Summary.Seq, len(m.Summary.Compressed))
			}
		case "tamper":
			if len(fields) != 3 {
				fmt.Println("usage: tamper <lo> <hi>")
				continue
			}
			ca, err := scan(atoi(fields[1]), atoi(fields[2]))
			if err != nil || len(ca.Records) == 0 {
				fmt.Println("need a non-empty answer to tamper with")
				continue
			}
			forged := *ca.Records[0]
			forged.Attrs = [][]byte{[]byte("FORGED")}
			ca.Records[0] = &forged
			if _, err := sys.Verifier.VerifyScan(ca, atoi(fields[1]), atoi(fields[2]), now); err != nil {
				fmt.Println("tampering detected:", err)
			} else {
				fmt.Println("BUG: tampering went unnoticed!")
			}
		case "stats":
			fmt.Printf("server: %d records in %d shards\n", sys.QS.Len(), sys.QS.Shards())
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command", fields[0])
		}
	}
}

func atoi(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		fmt.Println("bad number:", s)
	}
	return v
}
