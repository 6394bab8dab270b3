package aggtree

import "authdb/internal/sigagg"

// This file holds names benchmark/ compiles against and nothing else
// calls. Each is a thin wrapper over the one path: Put with a prepared
// signature, FoldRange into an accumulator.

// Upsert inserts the entry or replaces the signature, rid and payload
// stored under its key: Put with the signature prepared here. A
// malformed signature is rejected with the tree unchanged.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (t *Tree) Upsert(e Entry) (replaced bool, ops int, err error) {
	leaf, err := t.prepare(e)
	if err != nil {
		return false, 0, err
	}
	replaced, ops = t.Put(e, leaf)
	return replaced, ops, nil
}

// AggRange returns the encoded aggregate signature over every entry
// with lo <= key <= hi and the number of aggregation operations spent.
// A range containing no entries yields a nil signature. It is FoldRange
// into a fresh accumulator, encoded.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (t *Tree) AggRange(lo, hi int64) (sigagg.Signature, int, error) {
	acc := t.folder.NewSum()
	pieces, err := t.FoldRange(acc, lo, hi)
	if err != nil || pieces == 0 {
		return nil, 0, err
	}
	sig, err := acc.Encode(nil)
	return sig, pieces - 1, err
}
