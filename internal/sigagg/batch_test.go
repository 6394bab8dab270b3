package sigagg_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
)

// boundScheme builds a usable (bound where necessary) scheme plus a key
// pair for batch testing.
func boundScheme(t *testing.T, raw sigagg.Scheme) (sigagg.Scheme, sigagg.PrivateKey, sigagg.PublicKey) {
	t.Helper()
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sigagg.Bind(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	return s, priv, pub
}

func mkDigests(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("digest-%04d", i))
	}
	return out
}

func batchSchemes() []sigagg.Scheme {
	return []sigagg.Scheme{bas.New(0), crsa.New(1024), xortest.New()}
}

// TestSignBatchMatchesSign is the core property: the batch path must
// produce byte-identical signatures to the one-shot primitive on every
// scheme, so the two stay interchangeable.
func TestSignBatchMatchesSign(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, _ := boundScheme(t, raw)
			digests := mkDigests(33)
			batch, err := s.SignBatch(priv, digests)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range digests {
				one, err := s.Sign(priv, d)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(one, batch[i]) {
					t.Fatalf("digest %d: batch signature differs from Sign", i)
				}
			}
		})
	}
}

// TestPoolSignAllMatchesSerial checks the worker fan-out returns the
// same signatures in the same order as a serial loop.
func TestPoolSignAllMatchesSerial(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, _ := boundScheme(t, raw)
			digests := mkDigests(97)
			want := make([]sigagg.Signature, len(digests))
			for i, d := range digests {
				sig, err := s.Sign(priv, d)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = sig
			}
			for _, par := range []int{1, 4} {
				got, err := sigagg.NewPool(s, par).SignIndexed(priv, len(digests), func(i int) []byte { return digests[i] })
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("par=%d digest %d: pool signature differs", par, i)
					}
				}
			}
		})
	}
}

// jobsFor signs and aggregates a few disjoint digest groups.
func jobsFor(t *testing.T, s sigagg.Scheme, priv sigagg.PrivateKey) []sigagg.VerifyJob {
	t.Helper()
	jobs := make([]sigagg.VerifyJob, 5)
	for j := range jobs {
		digests := make([][]byte, j+1)
		sigs := make([]sigagg.Signature, j+1)
		for i := range digests {
			digests[i] = []byte(fmt.Sprintf("job-%d-digest-%d", j, i))
			sig, err := s.Sign(priv, digests[i])
			if err != nil {
				t.Fatal(err)
			}
			sigs[i] = sig
		}
		agg, err := s.AggregateInto(nil, sigs)
		if err != nil {
			t.Fatal(err)
		}
		jobs[j] = sigagg.VerifyJob{Digests: digests, Agg: agg}
	}
	return jobs
}

// TestVerifyJobsAcceptsValid checks the batched verification equation
// accepts what per-job AggregateVerify accepts.
func TestVerifyJobsAcceptsValid(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, pub := boundScheme(t, raw)
			jobs := jobsFor(t, s, priv)
			if err := s.VerifyJobs(pub, jobs); err != nil {
				t.Fatalf("valid batch rejected: %v", err)
			}
			if err := s.VerifyJobs(pub, nil); err != nil {
				t.Fatalf("empty batch rejected: %v", err)
			}
		})
	}
}

// TestVerifyJobsTamperedMemberFailsBatch is the adversarial property:
// one corrupted digest or aggregate anywhere must fail the whole batch.
func TestVerifyJobsTamperedMemberFailsBatch(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, pub := boundScheme(t, raw)
			jobs := jobsFor(t, s, priv)
			jobs[2].Digests[0] = []byte("tampered")
			if err := s.VerifyJobs(pub, jobs); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("tampered digest: want ErrVerify, got %v", err)
			}

			jobs = jobsFor(t, s, priv)
			wrong, err := s.Sign(priv, []byte("other message"))
			if err != nil {
				t.Fatal(err)
			}
			jobs[3].Agg = wrong
			if err := s.VerifyJobs(pub, jobs); !errors.Is(err, sigagg.ErrVerify) {
				t.Fatalf("tampered aggregate: want ErrVerify, got %v", err)
			}
		})
	}
}

// TestPoolVerifyAllBatched exercises the pool's batched verification
// end to end, including rejection.
func TestPoolVerifyAllBatched(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, pub := boundScheme(t, raw)
			for _, par := range []int{1, 3} {
				pool := sigagg.NewPool(s, par)
				jobs := jobsFor(t, s, priv)
				if err := pool.VerifyAll(pub, jobs); err != nil {
					t.Fatalf("par=%d: valid batch rejected: %v", par, err)
				}
				jobs[4].Digests[0] = []byte("tampered")
				if err := pool.VerifyAll(pub, jobs); !errors.Is(err, sigagg.ErrVerify) {
					t.Fatalf("par=%d: tampered batch accepted: %v", par, err)
				}
			}
		})
	}
}

// TestPoolSignSingle routes one-off signatures through the batch path.
func TestPoolSignSingle(t *testing.T) {
	for _, raw := range batchSchemes() {
		t.Run(raw.Name(), func(t *testing.T) {
			s, priv, pub := boundScheme(t, raw)
			pool := sigagg.NewPool(s, 2)
			sig, err := pool.Sign(priv, []byte("single"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(pub, []byte("single"), sig); err != nil {
				t.Fatal(err)
			}
		})
	}
}
