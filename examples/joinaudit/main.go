// Joinaudit: verifiable equi-join over TPC-E-like tables (§3.5, §5.5).
//
// R is the 'Security' table and S a 'Holding' subset; the join
// σ(R) ⋈_{R.A=S.B} S asks "for these securities, list all holdings".
// The S side of the answer is a list of runs — one chained selection on
// S over each stretch of selected securities between which S holds no
// other security's holdings — and the interesting part is proving the
// securities with NO holdings. The baseline (BV) must cover every one of
// them with a run, whose boundaries enclose it; the paper's method (BF)
// ships certified partitioned Bloom filters and needs a run only around
// matches and false positives. Both proofs are sized as wire encodes
// them; BF's is the smaller, by most where few selected securities are
// held (`authbench fig11`).
package main

import (
	"fmt"
	"log"

	"authdb/internal/chain"
	"authdb/internal/join"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

func main() {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}

	// A 1/10-scale TPC-E workload keeps this example fast; run
	// `authbench fig11` for the full-size experiment.
	tp := workload.NewTPCE(workload.TPCEConfig{NR: 685, NS: 8940, IB: 342, Seed: 7})
	fmt.Printf("R (Security): %d rows, S (Holding): %d rows over %d distinct securities\n",
		len(tp.R), len(tp.S), len(tp.Held))

	// The data aggregator chain-signs S on the join attribute and
	// certifies a partitioned Bloom filter (IB/p = 4 values per
	// partition, m/IB = 8 bits per value: FP ≈ 2.2%).
	s, err := join.BuildRelation(scheme, priv, tp.S)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := join.CertifyFilter(scheme, priv, s, 4, 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified %d Bloom-filter partitions\n", fc.PF.P())

	// Select 20%% of R at a 50%% match ratio (the Fig. 11 default).
	rSel := tp.SelectR(0.20, 0.5, 3)
	var raValues []int64
	for _, r := range rSel {
		raValues = append(raValues, r.Key)
	}

	// Build, verify and size both proofs.
	var size [2]int
	for _, method := range []join.Method{join.BV, join.BF} {
		ans, err := join.Build(scheme, method, raValues, s, fc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := join.Verify(scheme, pub, raValues, ans)
		if err != nil {
			log.Fatalf("%v proof rejected: %v", method, err)
		}
		fmt.Printf("%v: %d matched, %d unmatched securities verified in %d runs", method,
			res.Matched, res.Absent+res.Negatives, len(ans.Runs))
		if method == join.BF {
			fmt.Printf(" + %d Bloom negatives under %d partitions (%d securities absent inside a run: false positives, or negatives a run passed over)",
				res.Negatives, len(ans.Negatives), res.Absent)
		}
		fmt.Println()
		size[method] = proofBytes(ans)
	}

	// What each proof takes on the wire (what Fig. 11 plots).
	bv, bf := size[join.BV], size[join.BF]
	fmt.Printf("\njoin proof on the wire, matched holdings excluded: BV = %d bytes, BF = %d bytes (%.0f%% smaller)\n",
		bv, bf, 100*(1-float64(bf)/float64(bv)))

	// A forged "no holdings" claim for a held security is caught: the
	// certified filter cannot probe negative for a present value.
	var held int64
	for _, r := range rSel {
		if tp.Held[r.Key] {
			held = r.Key
			break
		}
	}
	forged, err := join.Build(scheme, join.BF, []int64{held + 1}, s, fc)
	if err != nil {
		log.Fatal(err)
	}
	if len(forged.Negatives) == 1 {
		forged.Negatives[0].Keys[0] = held // lie about which value was probed
		if _, err := join.Verify(scheme, pub, []int64{held}, forged); err != nil {
			fmt.Printf("forged non-match claim rejected: %v\n", err)
		} else {
			log.Fatal("BUG: forged non-match accepted")
		}
	}
}

// proofBytes is what a join section's proof takes on the wire: the
// section as wire encodes it, less the encoded matched S records it
// carries (the answer, not proof), which the encoder sizes as the outer
// chain of a frame of their own.
func proofBytes(ans *join.Answer) int {
	var matched []*chain.Record
	for _, run := range ans.Runs {
		matched = append(matched, run.Records...)
	}
	with := sectionBytes(&wire.Composite{Outer: &chain.Answer{Records: matched}, Join: ans})
	bare := sectionBytes(&wire.Composite{Outer: &chain.Answer{}})
	return with.Join - (with.Outer - bare.Outer)
}

// sectionBytes encodes c as a 'C' frame and reports what each of its
// sections took.
func sectionBytes(c *wire.Composite) wire.SectionBytes {
	core, err := wire.AppendCompositeCore(nil, c)
	if err == nil {
		c, err = wire.DecodeComposite(wire.AppendRelTails(core, nil))
	}
	if err != nil {
		log.Fatal(err)
	}
	return c.Bytes
}
