package bas

import "math/big"

// Width-w NAF scalar multiplication on the limb kernel. Production
// closes a batch with crypto/elliptic's ScalarMult (see keytable.go);
// this is the other contender, kept as the tests' way of driving
// double / addJac through a few hundred dependent steps whose result
// ScalarMult can check.

const wnafWindow = 5 // odd digits in [-31, 31]; 16-entry odd-multiple tables

// wnafRecode converts a non-negative scalar to width-w NAF: a digit
// string where every nonzero digit is odd, |digit| < 2^(w-1), and any
// two nonzero digits are at least w positions apart — so a scalar
// multiplication needs one table lookup per ~(w+1) doublings.
func wnafRecode(k *big.Int, w uint) []int8 {
	if k.Sign() == 0 {
		return nil
	}
	var (
		d    = new(big.Int).Set(k)
		mod  = int64(1) << w       // 2^w
		half = int64(1) << (w - 1) // 2^(w-1)
		out  = make([]int8, 0, d.BitLen()+1)
	)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			// digit = d mods 2^w, the odd remainder in (-2^(w-1), 2^(w-1))
			digit := int64(0)
			for b := uint(0); b < w; b++ {
				digit |= int64(d.Bit(int(b))) << b
			}
			if digit >= half {
				digit -= mod
			}
			out = append(out, int8(digit))
			if digit > 0 {
				d.Sub(d, big.NewInt(digit))
			} else {
				d.Add(d, big.NewInt(-digit))
			}
		} else {
			out = append(out, 0)
		}
		d.Rsh(d, 1)
	}
	return out
}

// wnafMul sets dst = naf-digits·base with one doubling per digit and
// one addition per nonzero digit (about one in six), against a table
// of base's odd multiples 1, 3, ..., 31 kept in Jacobian form.
func wnafMul(dst *jacPoint, naf []int8, base *jacPoint) {
	const tblSize = 1 << (wnafWindow - 1) // 16
	var tbl [tblSize]jacPoint
	tbl[0] = *base
	twice := *base
	twice.double()
	for i := 1; i < tblSize; i++ {
		tbl[i] = tbl[i-1]
		tbl[i].addJac(&twice)
	}
	dst.setInfinity()
	for i := len(naf) - 1; i >= 0; i-- {
		dst.double()
		switch d := naf[i]; {
		case d > 0:
			dst.addJac(&tbl[d>>1])
		case d < 0:
			neg := tbl[(-d)>>1]
			feNeg(&neg.y, &neg.y)
			dst.addJac(&neg)
		}
	}
}
