package sigagg

// Folder is an optional Scheme capability: proof construction over
// decoded operands. A server aggregates the same stored signatures into
// answer after answer, so the decode (for BAS a square root) is paid
// once, at Prepare, and a Sum then folds operands — and other sums — in
// whatever un-normalised form the scheme adds fastest, normalising and
// encoding exactly once, in Encode. The encoding is the one Aggregate
// produces for the same multiset: a fold changes what an aggregate
// costs, never its bytes.
//
// Callers do not test for the capability; FolderFor hands every scheme
// one.
type Folder interface {
	// Prepare decodes sig into the operand form Sum.Fold takes and
	// rejects a malformed encoding, so nothing stored prepared can fail
	// a later fold.
	Prepare(sig Signature) (Operand, error)
	// NewSum returns an empty running sum: the identity aggregate.
	NewSum() Sum
}

// Operand is a signature (or aggregate) in its scheme's decoded form.
// It is immutable and may be folded into any number of sums, from any
// number of goroutines; only the Folder that prepared it knows its type.
type Operand any

// Sum is a running aggregate in the scheme's un-normalised form. A Sum
// is not safe for concurrent mutation; Merge only reads its argument,
// so stored sums may be merged into private ones concurrently.
type Sum interface {
	// Fold adds one prepared operand.
	Fold(op Operand)
	// Merge adds another sum of the same Folder, leaving it untouched.
	Merge(other Sum)
	// Reset empties the sum, keeping its storage.
	Reset()
	// Encode normalises the sum and writes its signature encoding into
	// dst when that has capacity, allocating otherwise.
	Encode(dst Signature) (Signature, error)
}

// FolderFor returns the scheme's native Folder, or an adapter that runs
// the same calls over AggregateInto for schemes whose aggregates have no
// cheaper decoded form.
func FolderFor(s Scheme) Folder {
	if f, ok := s.(Folder); ok {
		return f
	}
	return aggFolder{s}
}

// PrepareAll prepares every signature of sigs.
func PrepareAll(f Folder, sigs []Signature) ([]Operand, error) {
	ops := make([]Operand, len(sigs))
	for i, sig := range sigs {
		op, err := f.Prepare(sig)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// aggFolder is the adapter: an operand is the validated encoding itself
// and a sum is a running encoded aggregate, advanced by two-input
// AggregateInto calls.
type aggFolder struct{ s Scheme }

func (f aggFolder) Prepare(sig Signature) (Operand, error) {
	// A one-input aggregation is the scheme's own well-formedness check.
	if _, err := f.s.AggregateInto(nil, []Signature{sig}); err != nil {
		return nil, err
	}
	return sig, nil
}

func (f aggFolder) NewSum() Sum { return &aggSum{s: f.s} }

type aggSum struct {
	s     Scheme
	sum   Signature // nil or empty: the identity
	spare Signature // AggregateInto's destination, swapped with sum per fold
	err   error     // first failure, reported by Encode
}

func (a *aggSum) Fold(op Operand) { a.add(op.(Signature)) }

func (a *aggSum) Merge(other Sum) {
	o := other.(*aggSum)
	if o.err != nil && a.err == nil {
		a.err = o.err
	}
	if len(o.sum) > 0 {
		a.add(o.sum)
	}
}

func (a *aggSum) add(sig Signature) {
	if a.err != nil {
		return
	}
	if len(a.sum) == 0 {
		a.sum = append(a.sum[:0], sig...)
		return
	}
	next, err := a.s.AggregateInto(a.spare, []Signature{a.sum, sig})
	if err != nil {
		a.err = err
		return
	}
	a.sum, a.spare = next, a.sum
}

func (a *aggSum) Reset() { a.sum, a.err = a.sum[:0], nil }

func (a *aggSum) Encode(dst Signature) (Signature, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.sum) == 0 {
		return a.s.AggregateInto(dst, nil)
	}
	return append(dst[:0], a.sum...), nil
}
