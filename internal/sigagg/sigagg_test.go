package sigagg_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"authdb/internal/digest"
	"authdb/internal/repro/sigcache"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
)

// suite bundles a ready-to-use scheme with its keys for cross-scheme
// conformance tests.
type suite struct {
	name   string
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
}

func newSuites(t *testing.T) []suite {
	t.Helper()
	var suites []suite

	b := bas.New(0) // no pairing-cost burn in functional tests
	bpriv, bpub, err := b.KeyGen(rand.Reader)
	if err != nil {
		t.Fatalf("bas keygen: %v", err)
	}
	suites = append(suites, suite{"bas", b, bpriv, bpub})

	c := crsa.New(1024)
	cpriv, cpub, err := c.KeyGen(rand.Reader)
	if err != nil {
		t.Fatalf("crsa keygen: %v", err)
	}
	bound, err := sigagg.Bind(c, cpub)
	if err != nil {
		t.Fatalf("crsa bind: %v", err)
	}
	suites = append(suites, suite{"crsa", bound, cpriv, cpub})
	return suites
}

func digests(n int, tag string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		d := digest.Sum([]byte(fmt.Sprintf("%s-%d", tag, i)))
		out[i] = d[:]
	}
	return out
}

func TestSignVerify(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			d := digest.Sum([]byte("message"))
			sig, err := s.scheme.Sign(s.priv, d[:])
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if len(sig) != s.scheme.SignatureSize() {
				t.Fatalf("signature size %d, want %d", len(sig), s.scheme.SignatureSize())
			}
			if err := s.scheme.Verify(s.pub, d[:], sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsWrongDigest(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			d1 := digest.Sum([]byte("m1"))
			d2 := digest.Sum([]byte("m2"))
			sig, err := s.scheme.Sign(s.priv, d1[:])
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			err = s.scheme.Verify(s.pub, d2[:], sig)
			if !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("want ErrVerify, got %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			d := digest.Sum([]byte("m"))
			sig, err := s.scheme.Sign(s.priv, d[:])
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			bad := sig.Clone()
			bad[len(bad)-1] ^= 0x01
			if err := s.scheme.Verify(s.pub, d[:], bad); err == nil {
				t.Fatal("tampered signature verified")
			}
		})
	}
}

func TestAggregateVerify(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			ds := digests(10, "agg")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sig, err := s.scheme.Sign(s.priv, d)
				if err != nil {
					t.Fatalf("Sign %d: %v", i, err)
				}
				sigs[i] = sig
			}
			agg, err := s.scheme.AggregateInto(nil, sigs)
			if err != nil {
				t.Fatalf("Aggregate: %v", err)
			}
			if len(agg) != s.scheme.SignatureSize() {
				t.Fatalf("aggregate size %d, want %d", len(agg), s.scheme.SignatureSize())
			}
			if err := s.scheme.AggregateVerify(s.pub, ds, agg); err != nil {
				t.Fatalf("AggregateVerify: %v", err)
			}
		})
	}
}

func TestAggregateVerifyRejectsOmission(t *testing.T) {
	// The server must not be able to drop a record from the answer while
	// keeping the aggregate: verification over a subset of digests fails.
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			ds := digests(5, "omit")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sigs[i], _ = s.scheme.Sign(s.priv, d)
			}
			agg, _ := s.scheme.AggregateInto(nil, sigs)
			err := s.scheme.AggregateVerify(s.pub, ds[:4], agg)
			if !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("want ErrVerify on omission, got %v", err)
			}
		})
	}
}

func TestAggregateOrderIndependent(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			ds := digests(6, "order")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sigs[i], _ = s.scheme.Sign(s.priv, d)
			}
			a1, err := s.scheme.AggregateInto(nil, sigs)
			if err != nil {
				t.Fatal(err)
			}
			rev := make([]sigagg.Signature, len(sigs))
			for i := range sigs {
				rev[i] = sigs[len(sigs)-1-i]
			}
			a2, err := s.scheme.AggregateInto(nil, rev)
			if err != nil {
				t.Fatal(err)
			}
			if string(a1) != string(a2) {
				t.Fatal("aggregation must be order-independent")
			}
		})
	}
}

func TestAddMatchesAggregate(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			ds := digests(4, "add")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sigs[i], _ = s.scheme.Sign(s.priv, d)
			}
			all, err := s.scheme.AggregateInto(nil, sigs)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := s.scheme.AggregateInto(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sig := range sigs {
				inc, err = s.scheme.AggregateInto(nil, []sigagg.Signature{inc, sig})
				if err != nil {
					t.Fatal(err)
				}
			}
			if string(all) != string(inc) {
				t.Fatal("folding one signature at a time differs from one batch AggregateInto")
			}
		})
	}
}

func TestRemoveInvertsAdd(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			rm, ok := s.scheme.(sigcache.Remover)
			if !ok {
				t.Fatalf("%s is no sigcache.Remover", s.name)
			}
			ds := digests(3, "rm")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sigs[i], _ = s.scheme.Sign(s.priv, d)
			}
			base, _ := s.scheme.AggregateInto(nil, sigs[:2])
			withThird, err := s.scheme.AggregateInto(nil, []sigagg.Signature{base, sigs[2]})
			if err != nil {
				t.Fatal(err)
			}
			back, err := rm.Remove(withThird, sigs[2])
			if err != nil {
				t.Fatal(err)
			}
			if string(back) != string(base) {
				t.Fatal("Remove(AggregateInto(nil, {a, s}), s) != a")
			}
			// And the reduced aggregate still verifies over the reduced set.
			if err := s.scheme.AggregateVerify(s.pub, ds[:2], back); err != nil {
				t.Fatalf("reduced aggregate fails verification: %v", err)
			}
		})
	}
}

func TestEmptyAggregateIsIdentity(t *testing.T) {
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			empty, err := s.scheme.AggregateInto(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			d := digest.Sum([]byte("x"))
			sig, _ := s.scheme.Sign(s.priv, d[:])
			sum, err := s.scheme.AggregateInto(nil, []sigagg.Signature{empty, sig})
			if err != nil {
				t.Fatal(err)
			}
			if string(sum) != string(sig) {
				t.Fatal("identity + sig must equal sig")
			}
			if err := s.scheme.AggregateVerify(s.pub, nil, empty); err != nil {
				t.Fatalf("empty aggregate over zero digests must verify: %v", err)
			}
		})
	}
}

func TestQuickAggregateSubsetNeverVerifies(t *testing.T) {
	// Property: for any partition of signed digests, the aggregate over
	// set A never verifies against digest set B != A (as multisets).
	for _, s := range newSuites(t) {
		t.Run(s.name, func(t *testing.T) {
			ds := digests(8, "q")
			sigs := make([]sigagg.Signature, len(ds))
			for i, d := range ds {
				sigs[i], _ = s.scheme.Sign(s.priv, d)
			}
			f := func(mask uint8, other uint8) bool {
				if mask == other {
					return true
				}
				var aggSigs []sigagg.Signature
				var verifyDs [][]byte
				for i := 0; i < 8; i++ {
					if mask&(1<<i) != 0 {
						aggSigs = append(aggSigs, sigs[i])
					}
					if other&(1<<i) != 0 {
						verifyDs = append(verifyDs, ds[i])
					}
				}
				agg, err := s.scheme.AggregateInto(nil, aggSigs)
				if err != nil {
					return false
				}
				return s.scheme.AggregateVerify(s.pub, verifyDs, agg) != nil
			}
			cfg := &quick.Config{MaxCount: 40}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBindIsNoopForBAS(t *testing.T) {
	b := bas.New(0)
	_, pub, err := b.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sigagg.Bind(b, pub)
	if err != nil {
		t.Fatal(err)
	}
	if got != sigagg.Scheme(b) {
		t.Fatal("Bind must return the BAS scheme unchanged")
	}
}

func TestCrossSchemeKeysRejected(t *testing.T) {
	b := bas.New(0)
	c := crsa.New(1024)
	bpriv, bpub, _ := b.KeyGen(rand.Reader)
	d := digest.Sum([]byte("x"))
	if _, err := c.Sign(bpriv, d[:]); err == nil {
		t.Error("crsa.Sign must reject a bas private key")
	}
	if err := c.Verify(bpub, d[:], make([]byte, c.SignatureSize())); err == nil {
		t.Error("crsa.Verify must reject a bas public key")
	}
}
