package bas

import (
	"math/big"
	"testing"

	"authdb/internal/sigagg"
)

// FuzzFieldMul: for any two 32-byte strings, read as integers mod p,
// every field operation agrees with math/big.
func FuzzFieldMul(f *testing.F) {
	pm1 := new(big.Int).Sub(p256P, big.NewInt(1)).Bytes()
	ones := bytesOf(0xff, 32)
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(pm1, pm1)
	f.Add(p256P.Bytes(), pm1)
	f.Add(ones, ones)
	f.Add(ones, bytesOf(0x01, 32))
	f.Add(bytesOf(0x80, 1), bytesOf(0xff, 8))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		want := new(big.Int)
		x := new(big.Int).SetBytes(a)
		y := new(big.Int).SetBytes(b)
		if err := fieldAgrees(p256P, x.Mod(x, p256P), y.Mod(y, p256P), want); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecompress: for any byte string, decompress and
// elliptic.UnmarshalCompressed agree on whether it is a point and on
// which one.
func FuzzDecompress(f *testing.F) {
	s := New(0)
	gx, gy := s.curve.Params().Gx, s.curve.Params().Gy
	good := marshalPortable(s, gx, gy)
	odd := good.Clone()
	odd[0] ^= 1
	f.Add([]byte(good))
	f.Add([]byte(odd))
	f.Add(append([]byte{2}, p256P.Bytes()...))     // x = p
	f.Add(append([]byte{3}, bytesOf(0xff, 32)...)) // x = 2²⁵⁶−1
	f.Add(append([]byte{4}, good[1:]...))          // bad tag
	f.Add([]byte(good[:32]))                       // truncated
	f.Add(make([]byte, pointLen))                  // the identity encoding is not a point
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, enc []byte) {
		checkDecompress(t, s, enc)
	})
}

func bytesOf(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// FuzzPrecompTable fuzzes w-NAF recoding and multiplication: any scalar
// bytes must recode to a digit string that evaluates back to the scalar
// and multiplies identically to crypto/elliptic's ScalarMult.
func FuzzPrecompTable(f *testing.F) {
	s := New(0)
	n := s.curve.Params().N
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(new(big.Int).Sub(n, big.NewInt(1)).Bytes())
	f.Add(n.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	px, py := s.curve.ScalarBaseMult([]byte{3})
	var base jacPoint
	base.setAffine(affFromBig(px, py))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := new(big.Int).SetBytes(raw)
		k.Mod(k, n) // ScalarMult operates mod n; compare in the same group
		naf := wnafRecode(k, wnafWindow)
		// Digits must evaluate back to k.
		got := new(big.Int)
		for i := len(naf) - 1; i >= 0; i-- {
			got.Lsh(got, 1)
			got.Add(got, big.NewInt(int64(naf[i])))
		}
		if got.Cmp(k) != 0 {
			t.Fatalf("recode(%v) evaluates to %v", k, got)
		}
		// And multiply to the same point as the assembly path.
		var j jacPoint
		wnafMul(&j, naf, &base)
		if !j.equalsBig(s.curve.ScalarMult(px, py, k.Bytes())) {
			t.Fatalf("wnafMul(%v) diverges from curve.ScalarMult", k)
		}
	})
}

// FuzzFastVerifyAgreesWithPortable fuzzes the verification dispatch:
// for an arbitrary digest and arbitrary signature tampering, the fast
// and portable paths must return the same accept/reject decision.
func FuzzFastVerifyAgreesWithPortable(f *testing.F) {
	fast := New(0)
	portable := New(0, withPortableVerify())
	priv, pub, err := fast.KeyGen(newDetRand(99))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("digest"), uint8(0), uint8(0))
	f.Add([]byte("digest"), uint8(5), uint8(0x40))
	f.Fuzz(func(t *testing.T, digest []byte, pos, mask uint8) {
		sig, err := fast.Sign(priv, digest)
		if err != nil {
			t.Fatal(err)
		}
		mut := sig.Clone()
		mut[int(pos)%len(mut)] ^= mask
		jobs := []sigagg.VerifyJob{{Digests: [][]byte{digest}, Agg: mut}}
		ferr := fast.VerifyJobs(pub, jobs)
		perr := portable.VerifyJobs(pub, jobs)
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("fast (%v) and portable (%v) disagree on mutated sig (pos=%d mask=%#x)",
				ferr, perr, pos, mask)
		}
		if mask == 0 && ferr != nil {
			t.Fatalf("untampered signature rejected: %v", ferr)
		}
	})
}

// FuzzPointTable reads the input as a stream of 3-byte operations — put,
// get or a batch probe, and a key number (every fourth key forced onto a
// single home position) — and holds the table to the map oracle of
// h2c_test.go after every step. The bound is cut to 160 entries (two
// doublings away), so that inputs of a few hundred bytes reach growth, the
// bound and eviction.
func FuzzPointTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 6<<3 | 6})
	flood := make([]byte, 0, 3*400)
	for i := 0; i < 400; i++ { // past the bound, looking back now and then
		flood = append(flood, byte(i&1)<<7|byte(i>>8), byte(i), byte(i%7))
	}
	f.Add(flood)
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newOracle(t, 0, 0x0dd5eed)
		o.c.table.bound = 160 // under newPointCache's floor; nothing is allocated before the first put
		keyOf := func(i int) cacheKey {
			if i%4 == 0 {
				return homedKey(o.c.seed, 0x77<<56|uint64(i))
			}
			return testKey(i)
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			i := int(ops[0]>>7)<<10 | int(ops[0]&3)<<8 | int(ops[1])
			switch op := ops[2] % 8; {
			case op < 4:
				o.doPut(keyOf(i))
			case op < 6:
				o.doGet(keyOf(i))
			default:
				keys := make([]cacheKey, ops[2]>>3)
				for n := range keys {
					keys[n] = keyOf(i + n)
				}
				o.doProbe(keys)
			}
		}
		o.audit()
	})
}
