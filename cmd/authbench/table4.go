package main

import (
	"fmt"
	"time"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/digest"
	"authdb/internal/repro/embtree"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/storage"
	"authdb/internal/workload"
)

// testbed holds really built EMB- and BAS structures plus measured
// operation costs, shared by table4 and the Fig. 7/9 simulations.
type testbed struct {
	n       int
	ioTime  time.Duration // modelled time per page I/O
	sigSize int           // scheme signature size, resolved once

	sys     *core.Relation
	keys    []int64
	emb     *embtree.Tree
	embCert embtree.RootCert
	embSign func([]byte) ([]byte, error)
	embVer  func(msg, sig []byte) error

	embPool *storage.BufferPool

	crypto cryptoCosts
}

type opCosts struct {
	queryCPU  time.Duration
	queryIO   time.Duration
	updateCPU time.Duration
	updateIO  time.Duration
	signDelay time.Duration
	voBytes   int
	verify    time.Duration
}

// buildTestbed loads N records into both schemes and calibrates costs.
func buildTestbed(n int, ioMS float64) (*testbed, error) {
	tb := &testbed{n: n, ioTime: time.Duration(ioMS * float64(time.Millisecond))}

	scheme := bas.New(bas.DefaultPairingCost)
	cat, err := core.NewCatalog(scheme, core.DefaultConfig(), 0)
	if err != nil {
		return nil, err
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	tb.sys = sys
	tb.sigSize = sys.Scheme.SignatureSize()
	recs := workload.Records(workload.Config{N: n, RecLen: 512, Seed: 1})
	tb.keys = workload.Keys(recs)
	fmt.Printf("signing %d records with BAS... ", n)
	start := time.Now()
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		return nil, err
	}
	if err := sys.Deliver(msg); err != nil {
		return nil, err
	}
	fmt.Printf("%.1fs\n", time.Since(start).Seconds())

	// EMB- tree over the same keys.
	entries := make([]embtree.LeafEntry, n)
	for i, r := range recs {
		entries[i] = embtree.LeafEntry{
			Key: r.Key, RID: r.RID,
			RecDigest: digest.SumConcat(r.Attrs[0]),
		}
	}
	tb.embPool = storage.NewBufferPool(0)
	emb, err := embtree.BulkLoad(storage.DefaultPageConfig(), entries,
		embtree.WithBufferPool(tb.embPool))
	if err != nil {
		return nil, err
	}
	tb.emb = emb
	priv, pub := mustKeys(scheme)
	tb.embSign = func(m []byte) ([]byte, error) {
		s, err := scheme.Sign(priv, m)
		return []byte(s), err
	}
	tb.embVer = func(m, s []byte) error { return scheme.Verify(pub, m, sigagg.Signature(s)) }
	cert, err := emb.Certify(1, tb.embSign)
	if err != nil {
		return nil, err
	}
	tb.embCert = cert

	tb.crypto, err = measureScheme(scheme)
	if err != nil {
		return nil, err
	}
	return tb, nil
}

// recordPages models clustered record storage: 512-byte records read
// from sequential 4-KB pages.
func recordPages(card int) int {
	return (card*512 + 4095) / 4096
}

func mustKeys(scheme sigagg.Scheme) (sigagg.PrivateKey, sigagg.PublicKey) {
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		panic(err)
	}
	return priv, pub
}

// measureBAS times the signature-aggregation scheme at the given result
// cardinality.
func (tb *testbed) measureBAS(card int) (opCosts, error) {
	var c opCosts
	qg := workload.NewQueryGen(tb.keys, float64(card)/float64(tb.n), 11)
	q := qg.Next()
	var lastAns *core.Answer
	c.queryCPU = timeIt(3, func() {
		a, _, err := tb.sys.QS.QueryStamped(q.Lo, q.Hi)
		if err != nil {
			panic(err)
		}
		lastAns = a
	})
	cfg := storage.DefaultPageConfig()
	pages := cfg.HeightASign(int64(tb.n)) + 1 + card/cfg.LeafCapacityASign() + recordPages(card)
	c.queryIO = time.Duration(pages) * tb.ioTime
	c.voBytes = lastAns.Chain.VOSize(tb.sigSize)

	// The paper's client pays one aggregate verification per answer. A
	// session's Verifier remembers the claims it has closed, so looping one
	// answer through it would time the memo from the second iteration on:
	// time the memo-free chain.Verify plus the freshness check instead.
	c.verify = timeIt(1, func() {
		if err := chain.Verify(tb.sys.Scheme, tb.sys.Pub, lastAns.Chain); err != nil {
			panic(err)
		}
		if _, err := tb.sys.Verifier.Staleness(lastAns.Chain, 10); err != nil {
			panic(err)
		}
	})

	ug := workload.NewUpdateGen(tb.keys, 12)
	c.signDelay = tb.crypto.Sign
	c.updateCPU = timeIt(3, func() {
		key := ug.Next()
		msg, err := tb.sys.DA.Update(key, [][]byte{[]byte("v2")}, 5)
		if err != nil {
			panic(err)
		}
		if err := tb.sys.QS.Apply(msg); err != nil {
			panic(err)
		}
	})
	// Update I/O: descend to the leaf, write leaf + record page.
	c.updateIO = time.Duration(cfg.HeightASign(int64(tb.n))+3) * tb.ioTime
	return c, nil
}

// measureEMB times the EMB- baseline at the given result cardinality.
func (tb *testbed) measureEMB(card int) (opCosts, error) {
	var c opCosts
	qg := workload.NewQueryGen(tb.keys, float64(card)/float64(tb.n), 13)
	q := qg.Next()
	var res *embtree.Result
	c.queryCPU = timeIt(3, func() {
		r, err := tb.emb.RangeQuery(q.Lo, q.Hi, tb.embCert)
		if err != nil {
			panic(err)
		}
		res = r
	})
	cfg := storage.DefaultPageConfig()
	pages := cfg.HeightEMB(int64(tb.n)) + 1 + card/cfg.LeafCapacityEMB() + recordPages(card)
	c.queryIO = time.Duration(pages) * tb.ioTime
	c.voBytes = res.VO.SizeBytes()

	c.verify = timeIt(1, func() {
		if err := embtree.VerifyRange(res, q.Lo, q.Hi, tb.embVer); err != nil {
			panic(err)
		}
	})

	ug := workload.NewUpdateGen(tb.keys, 14)
	c.signDelay = tb.crypto.Sign // root re-signature by the DA
	version := int64(2)
	c.updateCPU = timeIt(3, func() {
		key := ug.Next()
		if !tb.emb.UpdateRecord(key, digest.Sum([]byte(fmt.Sprintf("v-%d", version)))) {
			panic("update failed")
		}
		version++
		cert, err := tb.emb.Certify(version, tb.embSign)
		if err != nil {
			panic(err)
		}
		tb.embCert = cert
	})
	// Update I/O: the digest path to the root is rewritten.
	c.updateIO = time.Duration(2*(cfg.HeightEMB(int64(tb.n))+1)+2) * tb.ioTime
	return c, nil
}

// runTable4 regenerates Table 4: standalone point (sf=1e-6 on 1M → one
// record) and range (sf=1e-3 → 0.1% of N) operations for both schemes.
func runTable4(args []string) error {
	fs := newFlags("table4")
	n := fs.Int("n", 100_000, "relation size (paper: 1M)")
	ioMS := fs.Float64("io", 5, "modelled ms per page I/O")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, err := buildTestbed(*n, *ioMS)
	if err != nil {
		return err
	}

	paper := map[string][4]float64{ // query, update, VO bytes, verify (ms except VO)
		"point-EMB": {35.316, 60.206, 440, 139},
		"point-BAS": {31.433, 40.246, 20, 42.92},
		"range-EMB": {129.782, 248.89, 720, 171},
		"range-BAS": {61.502, 237.4, 20, 375},
	}

	show := func(label, key string, c opCosts) {
		p := paper[key]
		fmt.Printf("  %-10s query=%8.2fms (cpu %.2f + io %.2f) [paper %g]   update=%8.2fms [paper %g]\n",
			label,
			ms(c.queryCPU+c.queryIO), ms(c.queryCPU), ms(c.queryIO), p[0],
			ms(c.updateCPU+c.updateIO+c.signDelay), p[1])
		fmt.Printf("  %-10s VO=%5dB [paper %g]   user verification=%8.2fms [paper %g]\n",
			"", c.voBytes, p[2], ms(c.verify), p[3])
	}

	for _, cardCase := range []struct {
		name string
		card int
	}{
		{"point (sf=1e-6)", 1},
		{fmt.Sprintf("range (sf=1e-3, %d records)", *n/1000), *n / 1000},
	} {
		fmt.Printf("\n%s @ N=%d:\n", cardCase.name, *n)
		emb, err := tb.measureEMB(cardCase.card)
		if err != nil {
			return err
		}
		bas, err := tb.measureBAS(cardCase.card)
		if err != nil {
			return err
		}
		prefix := "point"
		if cardCase.card > 1 {
			prefix = "range"
		}
		show("EMB-", prefix+"-EMB", emb)
		show("BAS", prefix+"-BAS", bas)
	}
	fmt.Println("\n(io column is the modelled disk component; the paper's testbed times are disk-dominated)")
	return nil
}
