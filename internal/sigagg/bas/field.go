package bas

import (
	"encoding/binary"
	"math/bits"
)

// Fixed-width arithmetic in the P-256 base field, the bottom of the
// verification kernel (point.go sits on top of it).
//
// A verified answer costs one curve addition per returned record, and a
// curve addition is eleven field multiplications, so the field multiply
// is the instruction the verifying client spends its time in. On
// math/big each one was a variable-length multiply, a long division by p
// and, when the destination aliased an operand, a heap allocation. Here
// an element is four 64-bit limbs held by value, the multiply is sixteen
// 64×64 products plus a Montgomery reduction that needs four more
// (−p⁻¹ mod 2⁶⁴ is 1 for this prime, so the reduction multiplier is the
// low limb itself), and nothing touches the heap.
//
// The code uses only math/bits, so it builds on every GOARCH. It makes
// no constant-time claim and is used on public data only (see
// DESIGN.md, "Verification fast path").

// fe is a field element in Montgomery form: the limbs hold a·2²⁵⁶ mod p,
// little-endian, always fully reduced, so == on two fe values is
// equality in the field and the zero value is 0.
type fe [4]uint64

// p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1, little-endian limbs. p2 is zero.
const (
	p0 = 0xffffffffffffffff
	p1 = 0x00000000ffffffff
	p3 = 0xffffffff00000001
)

var (
	feOne = fe{0x0000000000000001, 0xffffffff00000000, 0xffffffffffffffff, 0x00000000fffffffe} // 2²⁵⁶ mod p
	feRR  = fe{0x0000000000000003, 0xfffffffbffffffff, 0xfffffffffffffffe, 0x00000004fffffffd} // 2⁵¹² mod p
	feB   = fe{0xd89cdf6229c4bddf, 0xacf005cd78843090, 0xe5a220abf7212ed6, 0xdc30061d04874834} // curve b
)

// feCondSubP sets z to the 257-bit value (a4, a3..a0) < 2p, reduced
// mod p, without branching on it.
func feCondSubP(z *fe, a0, a1, a2, a3, a4 uint64) {
	r0, b := bits.Sub64(a0, p0, 0)
	r1, b := bits.Sub64(a1, p1, b)
	r2, b := bits.Sub64(a2, 0, b)
	r3, b := bits.Sub64(a3, p3, b)
	_, b = bits.Sub64(a4, 0, b)
	keep := -b // all ones when the subtraction borrowed: a < p already
	z[0] = r0 ^ ((r0 ^ a0) & keep)
	z[1] = r1 ^ ((r1 ^ a1) & keep)
	z[2] = r2 ^ ((r2 ^ a2) & keep)
	z[3] = r3 ^ ((r3 ^ a3) & keep)
}

// feAdd sets z = x + y.
func feAdd(z, x, y *fe) {
	a0, c := bits.Add64(x[0], y[0], 0)
	a1, c := bits.Add64(x[1], y[1], c)
	a2, c := bits.Add64(x[2], y[2], c)
	a3, c := bits.Add64(x[3], y[3], c)
	feCondSubP(z, a0, a1, a2, a3, c)
}

// feSub sets z = x − y.
func feSub(z, x, y *fe) {
	a0, b := bits.Sub64(x[0], y[0], 0)
	a1, b := bits.Sub64(x[1], y[1], b)
	a2, b := bits.Sub64(x[2], y[2], b)
	a3, b := bits.Sub64(x[3], y[3], b)
	m := -b // add p back when the subtraction borrowed
	var c uint64
	z[0], c = bits.Add64(a0, m, 0) // p0 is all ones: p0&m == m
	z[1], c = bits.Add64(a1, m&p1, c)
	z[2], c = bits.Add64(a2, 0, c)
	z[3], _ = bits.Add64(a3, m&p3, c)
}

// feNeg sets z = −x.
func feNeg(z, x *fe) {
	var zero fe
	feSub(z, &zero, x)
}

// redcRound is one round of Montgomery reduction on a four-limb window:
// it adds w0·p, which clears w0, and returns the window one limb up.
// p's limbs make the products shifts, save the top one.
func redcRound(w0, w1, w2, w3 uint64) (uint64, uint64, uint64, uint64) {
	hi, lo := bits.Mul64(w0, p3)
	var c uint64
	w1, c = bits.Add64(w1, w0<<32, 0)
	w2, c = bits.Add64(w2, w0>>32, c)
	w3, c = bits.Add64(w3, lo, c)
	return w1, w2, w3, hi + c
}

// feMontReduce sets z = t / 2²⁵⁶ mod p for the 512-bit t7..t0. Four
// rounds reduce the low half to at most p; adding the high half gives a
// value below 2p.
func feMontReduce(z *fe, t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	t0, t1, t2, t3 = redcRound(t0, t1, t2, t3)
	t0, t1, t2, t3 = redcRound(t0, t1, t2, t3)
	t0, t1, t2, t3 = redcRound(t0, t1, t2, t3)
	t0, t1, t2, t3 = redcRound(t0, t1, t2, t3)
	var c uint64
	t0, c = bits.Add64(t0, t4, 0)
	t1, c = bits.Add64(t1, t5, c)
	t2, c = bits.Add64(t2, t6, c)
	t3, c = bits.Add64(t3, t7, c)
	feCondSubP(z, t0, t1, t2, t3, c)
}

// feMul sets z = x·y: schoolbook product, row by row, then one
// reduction. z may alias x or y.
func feMul(z, x, y *fe) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]

	xi := x[0]
	h0, t0 := bits.Mul64(xi, y0)
	h1, l1 := bits.Mul64(xi, y1)
	h2, l2 := bits.Mul64(xi, y2)
	h3, l3 := bits.Mul64(xi, y3)
	t1, c := bits.Add64(l1, h0, 0)
	t2, c := bits.Add64(l2, h1, c)
	t3, c := bits.Add64(l3, h2, c)
	t4 := h3 + c

	xi = x[1]
	h0, l0 := bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t5 := h3 + c

	xi = x[2]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, l3, c)
	t6 := h3 + c

	xi = x[3]
	h0, l0 = bits.Mul64(xi, y0)
	h1, l1 = bits.Mul64(xi, y1)
	h2, l2 = bits.Mul64(xi, y2)
	h3, l3 = bits.Mul64(xi, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t3, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7 := h3 + c

	feMontReduce(z, t0, t1, t2, t3, t4, t5, t6, t7)
}

// feSqr sets z = x²: the six cross products once, doubled, plus the
// four squares — ten multiplications where feMul needs sixteen.
func feSqr(z, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]

	h01, t1 := bits.Mul64(x0, x1)
	h02, l02 := bits.Mul64(x0, x2)
	h03, l03 := bits.Mul64(x0, x3)
	h12, l12 := bits.Mul64(x1, x2)
	h13, l13 := bits.Mul64(x1, x3)
	h23, l23 := bits.Mul64(x2, x3)
	t2, c := bits.Add64(h01, l02, 0)
	t3, c := bits.Add64(h02, l03, c)
	t4, c := bits.Add64(h03, l13, c)
	t5, c := bits.Add64(h13, l23, c)
	t6 := h23 + c
	t3, c = bits.Add64(t3, l12, 0)
	t4, c = bits.Add64(t4, h12, c)
	t5, c = bits.Add64(t5, 0, c)
	t6 += c

	t7 := t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	h00, t0 := bits.Mul64(x0, x0)
	h11, l11 := bits.Mul64(x1, x1)
	h22, l22 := bits.Mul64(x2, x2)
	h33, l33 := bits.Mul64(x3, x3)
	t1, c = bits.Add64(t1, h00, 0)
	t2, c = bits.Add64(t2, l11, c)
	t3, c = bits.Add64(t3, h11, c)
	t4, c = bits.Add64(t4, l22, c)
	t5, c = bits.Add64(t5, h22, c)
	t6, c = bits.Add64(t6, l33, c)
	t7 += h33 + c

	feMontReduce(z, t0, t1, t2, t3, t4, t5, t6, t7)
}

// feSqrN sets z = x^(2ⁿ), n ≥ 1.
func feSqrN(z, x *fe, n int) {
	feSqr(z, x)
	for i := 1; i < n; i++ {
		feSqr(z, z)
	}
}

// fePowLadder returns x^(2ᵏ−1) for k = 2, 4, 8, 16, 32 and
// x^(2⁶⁴−2³²+1), the top 64 bits that the inversion and square-root
// exponents share.
func fePowLadder(x *fe) (e2, e4, e8, e16, e32, top fe) {
	feSqr(&e2, x)
	feMul(&e2, &e2, x)
	feSqrN(&e4, &e2, 2)
	feMul(&e4, &e4, &e2)
	feSqrN(&e8, &e4, 4)
	feMul(&e8, &e8, &e4)
	feSqrN(&e16, &e8, 8)
	feMul(&e16, &e16, &e8)
	feSqrN(&e32, &e16, 16)
	feMul(&e32, &e32, &e16)
	feSqrN(&top, &e32, 32)
	feMul(&top, &top, x)
	return
}

// feInv sets z = x⁻¹ = x^(p−2) by a fixed addition chain (255
// squarings, 13 multiplications); 0 maps to 0. z may alias x.
//
//	p−2 = ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff fffffffd
func feInv(z, x *fe) {
	e2, e4, e8, e16, e32, r := fePowLadder(x)
	feSqrN(&r, &r, 128)
	feMul(&r, &r, &e32)
	feSqrN(&r, &r, 32)
	feMul(&r, &r, &e32)
	feSqrN(&r, &r, 16)
	feMul(&r, &r, &e16)
	feSqrN(&r, &r, 8)
	feMul(&r, &r, &e8)
	feSqrN(&r, &r, 4)
	feMul(&r, &r, &e4)
	feSqrN(&r, &r, 2)
	feMul(&r, &r, &e2)
	feSqrN(&r, &r, 2)
	feMul(z, &r, x)
}

// feSqrt sets z to the square root x^((p+1)/4) of x and reports
// whether x is a square (p ≡ 3 mod 4, so the power is a root exactly
// when one exists). It is the same power math/big's ModSqrt computes
// for such primes, so both return the same one of the two roots —
// hash-to-curve relies on that to stay byte-identical. z may alias x.
//
//	(p+1)/4 = 2²⁵⁴ − 2²²² + 2¹⁹⁰ + 2⁹⁴
func feSqrt(z, x *fe) bool {
	_, _, _, _, _, r := fePowLadder(x)
	feSqrN(&r, &r, 96)
	feMul(&r, &r, x)
	feSqrN(&r, &r, 94)
	var chk fe
	feSqr(&chk, &r)
	ok := chk == *x
	*z = r
	return ok
}

// feSetBytes sets z to the 32-byte big-endian integer b taken mod p and
// reports whether b was already below p. Point decoding rejects
// encodings that were not; hash-to-curve wants the reduction.
func feSetBytes(z *fe, b []byte) (canonical bool) {
	_ = b[31]
	a3 := binary.BigEndian.Uint64(b[0:])
	a2 := binary.BigEndian.Uint64(b[8:])
	a1 := binary.BigEndian.Uint64(b[16:])
	a0 := binary.BigEndian.Uint64(b[24:])
	raw := fe{a0, a1, a2, a3}
	feCondSubP(z, a0, a1, a2, a3, 0) // 2²⁵⁶ < 2p: one subtraction reduces
	canonical = *z == raw
	feMul(z, z, &feRR)
	return canonical
}

// feCanon returns the plain (non-Montgomery) limbs of x.
func feCanon(x *fe) (c fe) {
	feMontReduce(&c, x[0], x[1], x[2], x[3], 0, 0, 0, 0)
	return c
}

// feBytes writes x as a 32-byte big-endian integer into b.
func feBytes(b []byte, x *fe) {
	_ = b[31]
	c := feCanon(x)
	binary.BigEndian.PutUint64(b[0:], c[3])
	binary.BigEndian.PutUint64(b[8:], c[2])
	binary.BigEndian.PutUint64(b[16:], c[1])
	binary.BigEndian.PutUint64(b[24:], c[0])
}

// feIsOdd reports the parity of x as an integer in [0, p), the bit a
// compressed point's tag carries.
func feIsOdd(x *fe) bool {
	c := feCanon(x)
	return c[0]&1 == 1
}
