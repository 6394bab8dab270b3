package bas

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"

	"authdb/internal/sigagg"
)

// The portable verification path: the trapdoor relation checked with
// crypto/elliptic and math/big only — affine curve.Add, ModSqrt
// hash-to-curve, UnmarshalCompressed — sharing no arithmetic with the
// limb kernel. It is what withPortableVerify selects and what the tests
// hold the kernel to.

// hashToCurvePortable is hashToCurve on math/big.
func (s *Scheme) hashToCurvePortable(digest []byte) (x, y *big.Int) {
	params := s.curve.Params()
	msg := append([]byte(h2cTag), digest...)
	msg = append(msg, 0, 0, 0, 0)
	ctr := msg[len(msg)-4:]
	three := big.NewInt(3)
	for i := uint32(0); ; i++ {
		binary.BigEndian.PutUint32(ctr, i)
		h := sha256.Sum256(msg)
		x = new(big.Int).SetBytes(h[:])
		x.Mod(x, params.P)
		// rhs = x³ - 3x + b mod p
		rhs := new(big.Int).Exp(x, three, params.P)
		rhs.Sub(rhs, new(big.Int).Mul(x, three))
		rhs.Add(rhs, params.B)
		rhs.Mod(rhs, params.P)
		if y = new(big.Int).ModSqrt(rhs, params.P); y != nil {
			return x, y
		}
	}
}

// decodePortable decodes a signature with elliptic.UnmarshalCompressed;
// nil coordinates are the point at infinity.
func (s *Scheme) decodePortable(sig sigagg.Signature) (x, y *big.Int, err error) {
	if identity, err := s.checkFrame(sig); err != nil || identity {
		return nil, nil, err
	}
	x, y = elliptic.UnmarshalCompressed(s.curve, sig)
	if x == nil {
		return nil, nil, fmt.Errorf("%w: not a curve point", sigagg.ErrBadSignature)
	}
	return x, y, nil
}

// addPortable adds two points where either may be the identity (nil x,
// or crypto/elliptic's (0,0)).
func (s *Scheme) addPortable(ax, ay, bx, by *big.Int) (*big.Int, *big.Int) {
	if isInfinityPortable(ax, ay) {
		return bx, by
	}
	if isInfinityPortable(bx, by) {
		return ax, ay
	}
	return s.curve.Add(ax, ay, bx, by)
}

func isInfinityPortable(x, y *big.Int) bool {
	return x == nil || (x.Sign() == 0 && y.Sign() == 0)
}

// verifyJobsPortable checks Σ agg_i == x·Σ_ij H(d_ij) job by job and
// digest by digest, charging the emulated pairings as it goes.
func (s *Scheme) verifyJobsPortable(p *PublicKey, jobs []sigagg.VerifyJob) (total int, ok bool, err error) {
	var ax, ay *big.Int // sum of the aggregates
	var hx, hy *big.Int // sum of the hashed digests
	for _, j := range jobs {
		jx, jy, err := s.decodePortable(j.Agg)
		if err != nil {
			return 0, false, err
		}
		ax, ay = s.addPortable(ax, ay, jx, jy)
		for _, d := range j.Digests {
			px, py := s.hashToCurvePortable(d)
			hx, hy = s.addPortable(hx, hy, px, py)
			s.emulatePairing()
			total++
		}
		s.emulatePairing() // the e(agg_i, g2) side of job i
	}
	var ex, ey *big.Int
	if !isInfinityPortable(hx, hy) {
		ex, ey = s.curve.ScalarMult(hx, hy, p.Trapdoor.Bytes())
	}
	if isInfinityPortable(ax, ay) || isInfinityPortable(ex, ey) {
		return total, isInfinityPortable(ax, ay) == isInfinityPortable(ex, ey), nil
	}
	return total, ax.Cmp(ex) == 0 && ay.Cmp(ey) == 0, nil
}
