package bas

import "authdb/internal/sigagg"

// Proof construction on decoded points (sigagg.Folder). A stored
// signature is decompressed once — the square root — into an affine
// point; running sums stay in Jacobian coordinates, where folding a
// point or another sum is field multiplications only, and the one
// inversion is paid when a finished sum is encoded. A curve point has
// exactly one compressed encoding, so the bytes are those Aggregate
// produces however the additions were grouped. None of this touches the
// verifier's point cache.

// sum is the native sigagg.Sum: a Jacobian accumulator. The zero value
// is the identity.
type sum struct{ j jacPoint }

// Prepare implements sigagg.Folder. The identity aggregate prepares to a
// nil point, which Fold skips.
func (s *Scheme) Prepare(sig sigagg.Signature) (sigagg.Operand, error) {
	pt := new(affPoint)
	identity, err := s.decode(pt, sig)
	if err != nil {
		return nil, err
	}
	if identity {
		pt = nil
	}
	return pt, nil
}

// NewSum implements sigagg.Folder.
func (s *Scheme) NewSum() sigagg.Sum { return new(sum) }

func (a *sum) Fold(op sigagg.Operand) {
	if pt := op.(*affPoint); pt != nil {
		a.j.mixedAdd(pt)
	}
}

func (a *sum) Merge(other sigagg.Sum) { a.j.addJac(&other.(*sum).j) }

func (a *sum) Reset() { a.j.setInfinity() }

func (a *sum) Encode(dst sigagg.Signature) (sigagg.Signature, error) {
	return encodeInto(dst, &a.j), nil
}
