package bas

// P-256 point arithmetic over the fixed-limb field (field.go), the part
// of the kernel verification and aggregation call.
//
// crypto/elliptic's Curve interface converts to and from affine
// coordinates around every operation, which for point addition means a
// modular inversion plus byte-level marshal / unmarshal per Add. Batch
// verification sums hundreds of points per call, so the sums run in
// Jacobian projective coordinates — (X, Y, Z) with x = X/Z², y = Y/Z³ —
// where a mixed addition costs 7 field multiplications + 4 squarings
// and no inversion at all. One inversion converts a finished sum back
// to affine when its encoding is wanted.
//
// Formulas are the standard a = −3 set from the EFD: madd-2007-bl for
// mixed addition, dbl-2001-b for doubling, add-2007-bl for full
// Jacobian-Jacobian addition. Every temporary is a stack value.

// affPoint is an affine curve point other than the point at infinity.
// It is a plain 64-byte value — no pointers — which is what the point
// cache stores.
type affPoint struct {
	x, y fe
}

// jacPoint is a point in Jacobian coordinates. Z = 0 encodes the point
// at infinity, so the zero value is infinity.
type jacPoint struct {
	x, y, z fe
}

func (j *jacPoint) setInfinity() { *j = jacPoint{} }

func (j *jacPoint) isInfinity() bool { return j.z == fe{} }

// setAffine loads an affine point (Z = 1).
func (j *jacPoint) setAffine(a *affPoint) {
	j.x, j.y, j.z = a.x, a.y, feOne
}

// double sets j = 2j in place (dbl-2001-b, a = −3, 3M + 5S):
// delta = Z², gamma = Y², beta = X·gamma,
// alpha = 3(X−delta)(X+delta),
// X3 = alpha² − 8beta, Z3 = (Y+Z)² − gamma − delta,
// Y3 = alpha(4beta − X3) − 8gamma².
// Infinity stays infinity (Z3 = 0), and so does a Y = 0 input
// (2-torsion; cannot occur on prime-order P-256 but the formula is total
// anyway).
func (j *jacPoint) double() {
	var delta, gamma, beta, alpha, t, u fe
	feSqr(&delta, &j.z)
	feSqr(&gamma, &j.y)
	feMul(&beta, &j.x, &gamma)
	feSub(&t, &j.x, &delta)
	feAdd(&u, &j.x, &delta)
	feMul(&t, &t, &u)
	feAdd(&alpha, &t, &t)
	feAdd(&alpha, &alpha, &t)
	// Z3 = (Y+Z)² − gamma − delta
	feAdd(&t, &j.y, &j.z)
	feSqr(&t, &t)
	feSub(&t, &t, &gamma)
	feSub(&j.z, &t, &delta)
	// X3 = alpha² − 8beta
	feAdd(&beta, &beta, &beta)
	feAdd(&beta, &beta, &beta) // 4beta
	feAdd(&u, &beta, &beta)    // 8beta
	feSqr(&t, &alpha)
	feSub(&j.x, &t, &u)
	// Y3 = alpha(4beta − X3) − 8gamma²
	feSub(&t, &beta, &j.x)
	feMul(&t, &alpha, &t)
	feSqr(&u, &gamma)
	feAdd(&u, &u, &u)
	feAdd(&u, &u, &u)
	feAdd(&u, &u, &u)
	feSub(&j.y, &t, &u)
}

// mixedAdd sets j = j + a for an affine a (madd-2007-bl, 7M + 4S):
// Z1Z1 = Z1², U2 = X2·Z1Z1, S2 = Y2·Z1·Z1Z1,
// H = U2−X1, r = 2(S2−Y1), and the usual completion.
// Handles all special cases: j at infinity (copy), equal points
// (double), inverse points (infinity).
func (j *jacPoint) mixedAdd(a *affPoint) {
	if j.isInfinity() {
		j.setAffine(a)
		return
	}
	var z1z1, u2, s2, h, r, hh, i, jj, v, t fe
	feSqr(&z1z1, &j.z)
	feMul(&u2, &a.x, &z1z1)
	feMul(&s2, &a.y, &j.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &j.x)
	feSub(&r, &s2, &j.y)
	if h == (fe{}) {
		if r == (fe{}) {
			j.double() // same point
		} else {
			j.setInfinity() // inverse points
		}
		return
	}
	feAdd(&r, &r, &r) // r = 2(S2−Y1)
	// HH = H², I = 4HH, J = H·I, V = X1·I
	feSqr(&hh, &h)
	feAdd(&i, &hh, &hh)
	feAdd(&i, &i, &i)
	feMul(&jj, &h, &i)
	feMul(&v, &j.x, &i)
	// Z3 = (Z1+H)² − Z1Z1 − HH
	feAdd(&t, &j.z, &h)
	feSqr(&t, &t)
	feSub(&t, &t, &z1z1)
	feSub(&j.z, &t, &hh)
	// X3 = r² − J − 2V
	feSqr(&t, &r)
	feSub(&t, &t, &jj)
	feSub(&t, &t, &v)
	feSub(&j.x, &t, &v)
	// Y3 = r(V − X3) − 2·Y1·J
	feSub(&v, &v, &j.x)
	feMul(&v, &r, &v)
	feMul(&t, &j.y, &jj)
	feAdd(&t, &t, &t)
	feSub(&j.y, &v, &t)
}

// addJac sets j = j + o for two Jacobian points (add-2007-bl, 11M + 5S).
func (j *jacPoint) addJac(o *jacPoint) {
	if o.isInfinity() {
		return
	}
	if j.isInfinity() {
		*j = *o
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r, i, jj, v, t fe
	feSqr(&z1z1, &j.z)
	feSqr(&z2z2, &o.z)
	feMul(&u1, &j.x, &z2z2)
	feMul(&u2, &o.x, &z1z1)
	feMul(&s1, &j.y, &o.z)
	feMul(&s1, &s1, &z2z2)
	feMul(&s2, &o.y, &j.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &u1)
	feSub(&r, &s2, &s1)
	if h == (fe{}) {
		if r == (fe{}) {
			j.double()
		} else {
			j.setInfinity()
		}
		return
	}
	feAdd(&r, &r, &r) // r = 2(S2−S1)
	// I = (2H)², J = H·I, V = U1·I
	feAdd(&i, &h, &h)
	feSqr(&i, &i)
	feMul(&jj, &h, &i)
	feMul(&v, &u1, &i)
	// Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
	feAdd(&t, &j.z, &o.z)
	feSqr(&t, &t)
	feSub(&t, &t, &z1z1)
	feSub(&t, &t, &z2z2)
	feMul(&j.z, &t, &h)
	// X3 = r² − J − 2V
	feSqr(&t, &r)
	feSub(&t, &t, &jj)
	feSub(&t, &t, &v)
	feSub(&j.x, &t, &v)
	// Y3 = r(V − X3) − 2·S1·J
	feSub(&v, &v, &j.x)
	feMul(&v, &r, &v)
	feMul(&t, &s1, &jj)
	feAdd(&t, &t, &t)
	feSub(&j.y, &v, &t)
}

// toAffine writes j's affine form to a, paying one field inversion
// unless Z is already 1. It reports false, leaving a alone, for the
// point at infinity.
func (j *jacPoint) toAffine(a *affPoint) bool {
	if j.isInfinity() {
		return false
	}
	if j.z == feOne {
		a.x, a.y = j.x, j.y
		return true
	}
	var zinv, zinv2 fe
	feInv(&zinv, &j.z)
	feSqr(&zinv2, &zinv)
	feMul(&a.x, &j.x, &zinv2)
	feMul(&zinv2, &zinv2, &zinv)
	feMul(&a.y, &j.y, &zinv2)
	return true
}

// equalsAffine reports whether the finite point j equals a, without an
// inversion: X == ax·Z² and Y == ay·Z³.
func (j *jacPoint) equalsAffine(a *affPoint) bool {
	if j.isInfinity() {
		return false
	}
	var z2, t fe
	feSqr(&z2, &j.z)
	feMul(&t, &a.x, &z2)
	if t != j.x {
		return false
	}
	feMul(&z2, &z2, &j.z)
	feMul(&t, &a.y, &z2)
	return t == j.y
}

// curveRHS sets z = x³ − 3x + b, the right-hand side of the curve
// equation.
func curveRHS(z, x *fe) {
	var t fe
	feSqr(&t, x)
	feMul(&t, &t, x)
	feSub(&t, &t, x)
	feSub(&t, &t, x)
	feSub(&t, &t, x)
	feAdd(z, &t, &feB)
}

// Compressed point encoding (SEC 1 §2.3.3): a tag byte, 02 for even y
// and 03 for odd, then x as 32 big-endian bytes.
const pointLen = 33

// decompress decodes a compressed point into a, accepting exactly what
// elliptic.UnmarshalCompressed accepts: right length, tag 02 or 03,
// x < p, and x³ − 3x + b a square.
func decompress(a *affPoint, enc []byte) bool {
	if len(enc) != pointLen || (enc[0] != 2 && enc[0] != 3) {
		return false
	}
	if !feSetBytes(&a.x, enc[1:]) {
		return false
	}
	var rhs fe
	curveRHS(&rhs, &a.x)
	if !feSqrt(&a.y, &rhs) {
		return false
	}
	if feIsOdd(&a.y) != (enc[0] == 3) {
		feNeg(&a.y, &a.y)
	}
	return true
}

// compress writes a's compressed encoding into dst[:pointLen].
func compress(dst []byte, a *affPoint) {
	dst[0] = 2
	if feIsOdd(&a.y) {
		dst[0] = 3
	}
	feBytes(dst[1:pointLen], &a.x)
}
