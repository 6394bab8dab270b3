package core_test

import (
	"bytes"
	"errors"
	"testing"

	"authdb/internal/core"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// FuzzClaimMemoAgreesWithVerify mutates the frame of an honest answer —
// the bytes a hostile server controls — and gives whatever still decodes
// to two verifiers: a warm one, which has just verified the honest answer
// twice and so remembers its claim by content name (claimmemo.go), and a
// fresh one, which remembers nothing (both hold the same certified
// summaries). What the warm one remembers may spare it arithmetic and
// digests, never change its verdict: the two must agree on every input,
// and must both accept the unmutated frame.
func FuzzClaimMemoAgreesWithVerify(f *testing.F) {
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		f.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	recs := workload.Records(workload.Config{N: 60, RecLen: 48, Seed: 5})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err == nil {
		err = sys.Deliver(msg)
	}
	if err == nil {
		if msg, err = sys.DA.ClosePeriod(1_000); err == nil {
			err = sys.Deliver(msg) // so the answer carries a summary
		}
	}
	if err != nil {
		f.Fatal(err)
	}
	lo, hi := keys[20], keys[31]
	honest, _, err := sys.QS.QueryStamped(lo, hi)
	if err != nil {
		f.Fatal(err)
	}
	sums := sys.QS.SummariesTail(0, honest.OldestSigTS)
	frame, err := wire.AppendCompositeCore(nil, &wire.Composite{Outer: honest.Chain})
	if err != nil {
		f.Fatal(err)
	}
	frame = wire.AppendRelTails(frame, []wire.RelTail{{Rel: core.DefaultRelation, Summaries: sums}})
	const now = 1_100

	f.Add(frame)
	for _, pos := range []int{len(frame) / 3, len(frame) / 2, len(frame) - 1, len(frame) - 40} {
		forged := bytes.Clone(frame)
		forged[pos] ^= 0x04
		f.Add(forged)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		warm := core.NewVerifier(sys.Scheme, sys.Pub, core.DefaultConfig())
		fresh := core.NewVerifier(sys.Scheme, sys.Pub, core.DefaultConfig())
		for _, v := range []*core.Verifier{warm, fresh} {
			for _, s := range sums {
				if err := v.IngestSummary(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := warm.VerifyScan(honest.Chain, lo, hi, now); err != nil {
				t.Fatalf("the honest answer: %v", err)
			}
		}
		// Each verifier decodes a frame of its own: a decoded answer aliases
		// its frame. Both hold every summary the tail can name, so the
		// verdict is the chain's.
		verdict := func(v *core.Verifier) error {
			c, err := wire.DecodeComposite(bytes.Clone(in), core.DefaultRelation)
			if err != nil {
				return err
			}
			if c.Proj != nil || c.Join != nil || len(c.Tails) != 1 {
				return errors.New("not a bare scan's frame")
			}
			_, err = v.VerifyScan(c.Outer, lo, hi, now)
			return err
		}
		warmErr, freshErr := verdict(warm), verdict(fresh)
		if (warmErr == nil) != (freshErr == nil) {
			t.Fatalf("the verifier that remembers the honest claim says %v, the one that remembers nothing says %v", warmErr, freshErr)
		}
		if bytes.Equal(in, frame) {
			if warmErr != nil {
				t.Fatalf("the unmutated frame: %v", warmErr)
			}
			if st := warm.ClaimStats(); st.ClaimHits != 2 || st.ContentHits != 1 || st.ClaimMisses != 1 {
				t.Fatalf("the unmutated frame was not known by its content: %+v", st)
			}
		}
	})
}
