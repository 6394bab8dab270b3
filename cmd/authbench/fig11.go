package main

import (
	"fmt"
	"slices"
	"time"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/join"
	"authdb/internal/repro/joinproof"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// runFig11 regenerates Figure 11: the proof size of the primary-key/
// foreign-key equi-join σ(R) ⋈ S under the BV and BF mechanisms, over
// the TPC-E-like tables of §5.5 (NR=6850, NS=894000, IB=3425), varying
// (a) the match ratio α, (b) the Bloom bits per distinct value m/IB,
// (c) the partition granularity IB/p (with the filter-update time), and
// (d) the selectivity on R. Every size is a verified joinproof.Build section
// as wire encodes it, less the matched S records it carries.
func runFig11(args []string) error {
	fs := newFlags("fig11")
	scale := fs.Float64("scale", 1.0, "table scale factor (1.0 = paper size)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := workload.DefaultTPCEConfig()
	cfg.NR = int(float64(cfg.NR) * *scale)
	cfg.NS = int(float64(cfg.NS) * *scale)
	cfg.IB = int(float64(cfg.IB) * *scale)
	e, err := newJoinEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("R: %d rows (IA=%d), S: %d rows (IB=%d distinct), chain-signed on S.B (%s)\n\n",
		cfg.NR, cfg.NR, cfg.NS, len(e.sB), e.scheme.Name())

	// pair sizes the BV and the BF section over one selection.
	pair := func(raValues []int64, fc *join.FilterCert) (bv, bf int, err error) {
		if bv, err = e.proofBytes(join.BV, raValues, nil); err != nil {
			return 0, 0, err
		}
		bf, err = e.proofBytes(join.BF, raValues, fc)
		return bv, bf, err
	}

	// (a) proof size vs α at 20% selectivity, m/IB=8, IB/p=4.
	fc8, err := e.certify(4, 8)
	if err != nil {
		return err
	}
	fmt.Println("(a) proof size vs match ratio α (sel=20%, m/IB=8, IB/p=4)")
	fmt.Printf("  %6s %14s %14s %12s\n", "α", "BV (KB)", "BF (KB)", "BF saving")
	for _, alpha := range []float64{0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0} {
		bv, bf, err := pair(e.selectR(0.20, alpha, 31), fc8)
		if err != nil {
			return err
		}
		fmt.Printf("  %6.1f %14.1f %14.1f %11.0f%%\n",
			alpha, float64(bv)/1024, float64(bf)/1024, saving(bv, bf))
	}
	fmt.Println("  paper: BF VOs ~60% smaller than BV across the α range")

	// (b) proof size vs m/IB at α=0.5.
	fmt.Println("\n(b) proof size vs Bloom bits per distinct value m/IB (α=0.5, IB/p=4)")
	fmt.Printf("  %6s %14s %14s %8s\n", "m/IB", "BV (KB)", "BF (KB)", "FPs")
	ra05 := e.selectR(0.20, 0.5, 32)
	bv05, err := e.proofBytes(join.BV, ra05, nil)
	if err != nil {
		return err
	}
	for _, bits := range []float64{4, 6, 8, 10, 12, 16} {
		fc, err := e.certify(4, bits)
		if err != nil {
			return err
		}
		bf, err := e.proofBytes(join.BF, ra05, fc)
		if err != nil {
			return err
		}
		live, _, err := fc.Probe(ra05)
		if err != nil {
			return err
		}
		fps := 0
		for i, v := range ra05 {
			if live[i] && !e.tp.Held[v] {
				fps++
			}
		}
		fmt.Printf("  %6.0f %14.1f %14.1f %8d\n",
			bits, float64(bv05)/1024, float64(bf)/1024, fps)
	}
	fmt.Println("  paper: m/IB of 8-12 is adequate; gains reverse as filters outgrow FP savings")

	// (c) proof size vs partition granularity IB/p, with filter update time.
	fmt.Println("\n(c) proof size vs partition size IB/p (α=0.5, m/IB=8)")
	fmt.Printf("  %6s %8s %14s %14s %16s\n", "IB/p", "p", "BV (KB)", "BF (KB)", "upd time (µs)")
	for _, vpp := range []int{2, 4, 8, 32, 128, 512, 2048} {
		if vpp > len(e.sB) {
			continue
		}
		fc, err := e.certify(vpp, 8)
		if err != nil {
			return err
		}
		bf, err := e.proofBytes(join.BF, ra05, fc)
		if err != nil {
			return err
		}
		upd := measurePartitionUpdate(e.sB, vpp)
		fmt.Printf("  %6d %8d %14.1f %14.1f %16.1f\n",
			vpp, fc.PF.P(), float64(bv05)/1024, float64(bf)/1024,
			float64(upd.Microseconds()))
	}
	fmt.Println("  paper: BF VO rises then falls with IB/p; update cost grows with partition size")

	// (d) proof size vs selectivity on R (natural α ≈ 0.5 for TPC-E).
	fmt.Println("\n(d) proof size vs selectivity on R (α=0.5, m/IB=8, IB/p=4)")
	fmt.Printf("  %8s %14s %14s %12s\n", "sel(%)", "BV (KB)", "BF (KB)", "BF saving")
	for _, sel := range []float64{0.005, 0.05, 0.20, 0.50, 0.95} {
		bv, bf, err := pair(e.selectR(sel, 0.5, 33), fc8)
		if err != nil {
			return err
		}
		fmt.Printf("  %8.1f %14.1f %14.1f %11.0f%%\n",
			sel*100, float64(bv)/1024, float64(bf)/1024, saving(bv, bf))
	}
	fmt.Println("  paper: BF 45%-75% smaller as selectivity grows from 0.5% to 95%")
	return nil
}

// joinEnv is the §5.5 join's server side: Holding (S) chain-signed on the
// join attribute, which may repeat — the relation joinproof.Build serves.
type joinEnv struct {
	tp     *workload.TPCE
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	s      *joinproof.Relation
	sB     []int64 // distinct S.B values, ascending
}

func newJoinEnv(cfg workload.TPCEConfig) (*joinEnv, error) {
	e := &joinEnv{tp: workload.NewTPCE(cfg), scheme: bas.New(0)}
	e.priv, e.pub = mustKeys(e.scheme)
	var err error
	if e.s, err = joinproof.BuildRelation(e.scheme, e.priv, e.tp.S); err != nil {
		return nil, err
	}
	e.sB = slices.Compact(e.s.Keys())
	return e, nil
}

// certify has the owner certify a partitioned Bloom filter on S.B.
func (e *joinEnv) certify(valuesPerPartition int, bitsPerKey float64) (*join.FilterCert, error) {
	return join.CertifyKeys(sigagg.NewPool(e.scheme, 0), e.priv, e.sB, valuesPerPartition, bitsPerKey, 1)
}

// selectR is the R.A values of a selection on R of the given selectivity
// and match ratio.
func (e *joinEnv) selectR(sel, alpha float64, seed int64) []int64 {
	rs := e.tp.SelectR(sel, alpha, seed)
	keys := make([]int64, len(rs))
	for i, r := range rs {
		keys[i] = r.Key
	}
	return keys
}

// proofBytes builds the join section over raValues, verifies it, and
// returns what its proof takes on the wire: the section as wire encodes
// it, less the encoded matched S records it carries — those are the
// answer, not proof, and the encoder sizes them too, as the outer chain
// of a frame of their own.
func (e *joinEnv) proofBytes(method join.Method, raValues []int64, fc *join.FilterCert) (int, error) {
	ans, err := joinproof.Build(e.scheme, method, raValues, e.s, fc)
	if err != nil {
		return 0, err
	}
	if _, err := joinproof.Verify(e.scheme, e.pub, raValues, ans); err != nil {
		return 0, fmt.Errorf("%v proof rejected: %w", method, err)
	}
	var matched []*chain.Record
	for _, run := range ans.Runs {
		matched = append(matched, run.Records...)
	}
	with := sectionBytes(&wire.Composite{Outer: &chain.Answer{Records: matched}, Join: ans})
	bare := sectionBytes(&wire.Composite{Outer: &chain.Answer{}})
	return with.Join - (with.Outer - bare.Outer), nil
}

// sectionBytes encodes c as a 'C' frame and reports what each of its
// sections took.
func sectionBytes(c *wire.Composite) wire.SectionBytes {
	core, err := wire.AppendCompositeCore(nil, c)
	if err == nil {
		c, err = wire.DecodeComposite(wire.AppendRelTails(core, nil))
	}
	if err != nil {
		panic(err) // a verified section under a chain answer always encodes and decodes
	}
	return c.Bytes
}

func saving(bv, bf int) float64 {
	if bv == 0 {
		return 0
	}
	return 100 * (1 - float64(bf)/float64(bv))
}

// measurePartitionUpdate times rebuilding one partition filter of the
// given granularity after a deletion (the maintenance cost partitioning
// bounds).
func measurePartitionUpdate(sB []int64, vpp int) time.Duration {
	pf, err := bloom.BuildPartitioned(sB, vpp, 8)
	if err != nil {
		panic(err)
	}
	idx := pf.P() / 2
	return timeIt(5, func() {
		if err := pf.RebuildPartition(idx, sB); err != nil {
			panic(err)
		}
	})
}
