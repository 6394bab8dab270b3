package projection

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

// TestSignRecordsByteIdentical: routing attribute signing through the
// pool's batch primitives must produce byte-for-byte the signatures the
// serial per-record path produces — on BAS and on xortest, across worker
// counts, including ragged attribute shapes.
func TestSignRecordsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme sigagg.Scheme
	}{
		{"bas", bas.New(0)},
		{"xortest", xortest.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			priv, _, err := tc.scheme.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			const n = 37
			rids := make([]uint64, n)
			attrs := make([][][]byte, n)
			tss := make([]int64, n)
			for i := range rids {
				rids[i] = uint64(1000 + i)
				tss[i] = int64(7 + i%3)
				vals := make([][]byte, i%4) // ragged: 0..3 attributes
				for k := range vals {
					vals[k] = []byte(fmt.Sprintf("r%d-a%d", i, k))
				}
				attrs[i] = vals
			}
			want := make([][]sigagg.Signature, n)
			for i := range rids {
				want[i], err = signSerial(tc.scheme, priv, rids[i], attrs[i], tss[i])
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 4} {
				pool := sigagg.NewPool(tc.scheme, workers)
				got, err := SignRecords(pool, priv, rids, attrs, tss)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("workers=%d: %d records signed, want %d", workers, len(got), n)
				}
				for i := range got {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("workers=%d rec %d: %d sigs, want %d",
							workers, i, len(got[i]), len(want[i]))
					}
					for k := range got[i] {
						if !bytes.Equal(got[i][k], want[i][k]) {
							t.Fatalf("workers=%d rec %d attr %d: batch signature differs from serial",
								workers, i, k)
						}
					}
				}
			}
		})
	}
}

// signSerial is the definition SignRecords batches: one scheme.Sign per
// attribute, over its AttrDigest.
func signSerial(scheme sigagg.Scheme, priv sigagg.PrivateKey, rid uint64, attrs [][]byte, ts int64) ([]sigagg.Signature, error) {
	sigs := make([]sigagg.Signature, len(attrs))
	w := digest.NewWriter(64)
	for i, a := range attrs {
		d := AttrDigest(w, rid, i, a, ts)
		sig, err := scheme.Sign(priv, d[:])
		if err != nil {
			return nil, err
		}
		sigs[i] = sig
	}
	return sigs, nil
}

func TestSignRecordsShapeMismatch(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	pool := sigagg.NewPool(scheme, 1)
	if _, err := SignRecords(pool, priv, []uint64{1, 2}, [][][]byte{nil}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
}
