package bas

import (
	"bytes"
	"crypto/elliptic"
	"math/big"
	"testing"
)

// The limb field is hand-written, so every operation is held to
// math/big on the values where limb code breaks — 0, 1, the top of the
// range, carries across every limb boundary — and on random ones.

var p256P = elliptic.P256().Params().P

// limbsToBig reads x's limbs as they are (Montgomery form included).
func limbsToBig(x *fe) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
	}
	return v
}

// edgeOperands are field elements chosen to stress carries and the
// conditional subtraction.
func edgeOperands() []*big.Int {
	pm := func(d int64) *big.Int { return new(big.Int).Sub(p256P, big.NewInt(d)) }
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
		pm(1), pm(2), pm(3),
		pow(32), pow(64), pow(96), pow(128), pow(192), pow(224), pow(255),
		new(big.Int).Sub(pow(64), big.NewInt(1)),
		new(big.Int).Sub(pow(128), big.NewInt(1)),
		new(big.Int).Sub(pow(192), big.NewInt(1)),
		new(big.Int).Mod(pow(256), p256P),                                  // R mod p, the Montgomery 1
		new(big.Int).Mod(new(big.Int).Sub(pow(256), big.NewInt(1)), p256P), // 2²⁵⁶−1 mod p
		new(big.Int).Rsh(p256P, 1),
		new(big.Int).Add(new(big.Int).Rsh(p256P, 1), big.NewInt(1)),
	}
}

func TestFieldConstants(t *testing.T) {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	mont := func(v *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(v, r), p256P) }
	for _, c := range []struct {
		name string
		got  fe
		want *big.Int
	}{
		{"p", fe{p0, p1, 0, p3}, p256P},
		{"feOne", feOne, mont(big.NewInt(1))},
		{"feRR", feRR, mont(r)},
		{"feB", feB, mont(elliptic.P256().Params().B)},
	} {
		if got := limbsToBig(&c.got); got.Cmp(c.want) != 0 {
			t.Errorf("%s = %x, want %x", c.name, got, c.want)
		}
	}
	// −p⁻¹ mod 2⁶⁴ == 1 is what lets redcRound use the low limb as the
	// multiplier: p·1 ≡ −1 mod 2⁶⁴.
	if p0 != ^uint64(0) {
		t.Error("p ≢ −1 mod 2⁶⁴")
	}
}

// TestFieldOpsMatchBig is the differential property test: mul, sqr,
// add, sub, neg, inv and sqrt agree with math/big on the full grid of
// edge operands and on random pairs.
func TestFieldOpsMatchBig(t *testing.T) {
	want := new(big.Int)
	edges := edgeOperands()
	for _, a := range edges {
		for _, b := range edges {
			if err := fieldAgrees(p256P, a, b, want); err != nil {
				t.Fatal(err)
			}
		}
	}
	rnd := newDetRand(20)
	buf := make([]byte, 40)
	random := func() *big.Int {
		rnd.Read(buf)
		v := new(big.Int).SetBytes(buf)
		return v.Mod(v, p256P)
	}
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		a, b := random(), random()
		if i%7 == 0 {
			b = edges[i%len(edges)]
		}
		if err := fieldAgrees(p256P, a, b, want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFieldAliasing: every operation may write over its operands.
func TestFieldAliasing(t *testing.T) {
	a := feFromBig(new(big.Int).Sub(p256P, big.NewInt(12345)))
	b := feFromBig(big.NewInt(987654321))
	var want fe
	for name, op := range map[string]func(z, x, y *fe){
		"mul": feMul, "add": feAdd, "sub": feSub,
		"sqr":  func(z, x, _ *fe) { feSqr(z, x) },
		"neg":  func(z, x, _ *fe) { feNeg(z, x) },
		"inv":  func(z, x, _ *fe) { feInv(z, x) },
		"sqrt": func(z, x, _ *fe) { feSqrt(z, x) },
	} {
		op(&want, &a, &b)
		x, y := a, b
		if op(&x, &x, &y); x != want {
			t.Errorf("%s: z aliasing x changes the result", name)
		}
		x, y = a, b
		if op(&y, &x, &y); y != want {
			t.Errorf("%s: z aliasing y changes the result", name)
		}
	}
	x := a
	feMul(&want, &a, &a)
	if feMul(&x, &x, &x); x != want {
		t.Error("mul: z, x, y all aliased changes the result")
	}
	if feSqr(&x, &a); x != want {
		t.Error("sqr(a) != mul(a, a)")
	}
}

// TestFieldSetBytes: decoding reduces mod p and says whether it had to
// — p, p+1 and 2²⁵⁶−1 are not canonical, p−1 is — and feBytes is its
// inverse on canonical input.
func TestFieldSetBytes(t *testing.T) {
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	for _, c := range []struct {
		v         *big.Int
		canonical bool
	}{
		{big.NewInt(0), true},
		{big.NewInt(1), true},
		{new(big.Int).Sub(p256P, big.NewInt(1)), true},
		{p256P, false},
		{new(big.Int).Add(p256P, big.NewInt(1)), false},
		{max, false},
	} {
		var in, out [32]byte
		c.v.FillBytes(in[:])
		var x fe
		if got := feSetBytes(&x, in[:]); got != c.canonical {
			t.Errorf("feSetBytes(%x) canonical = %v, want %v", c.v, got, c.canonical)
		}
		want := new(big.Int).Mod(c.v, p256P)
		if got := feToBig(&x); got.Cmp(want) != 0 {
			t.Errorf("feSetBytes(%x) = %x, want %x", c.v, got, want)
		}
		feBytes(out[:], &x)
		if c.canonical && !bytes.Equal(in[:], out[:]) {
			t.Errorf("feBytes(feSetBytes(%x)) = %x", c.v, out)
		}
		if feIsOdd(&x) != (want.Bit(0) == 1) {
			t.Errorf("feIsOdd(%x) wrong", c.v)
		}
	}
}
