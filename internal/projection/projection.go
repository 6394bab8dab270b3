// Package projection implements the attribute-level authentication of
// §3.4: the data aggregator signs every attribute value individually
// with a digest that binds the value to its record and attribute
// position, sign(h(rid | i | Ai | ts)), and sets the record signature to
// the aggregate of its attribute signatures. A projection answer then
// carries a single aggregate signature, with no overhead for the dropped
// attributes, and the server cannot swap values between records or
// attribute slots.
package projection

import (
	"encoding/binary"
	"fmt"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// AttrDigest computes h(rid | i | Ai | ts), the signed message for
// attribute index i of record rid, through a caller-owned Writer, which
// it resets: a run of values shares one buffer instead of allocating one
// each.
func AttrDigest(w *digest.Writer, rid uint64, attrIdx int, value []byte, ts int64) digest.Digest {
	w.Reset()
	w.PutUint64(rid)
	w.PutUint64(uint64(attrIdx))
	w.PutBytes(value)
	w.PutInt64(ts)
	return w.Sum()
}

// preimageHint sizes a Writer for the attribute digests of short values;
// a longer one grows it once.
const preimageHint = 64

// Row is one projected record in an answer: the record identity plus the
// values of the projected attributes. Only the values travel; a decoded
// answer's rows take their identity from the chained records they are
// listed beside (wire.DecodeComposite).
type Row struct {
	RID    uint64
	TS     int64
	Values [][]byte // parallel to the projection's attribute indexes
}

// Answer is a verifiable projection result π_{AttrIdxs}(R'): the rows
// plus one aggregate signature over every included attribute value.
type Answer struct {
	AttrIdxs []int
	Rows     []Row
	Agg      sigagg.Signature
}

// Build constructs the answer for the given rows by folding the matching
// attribute signatures into one aggregate, encoded once. attrOps[i]
// holds row i's per-attribute signatures as prepared operands of scheme
// (sigagg.FolderFor), indexed by attribute position.
func Build(scheme sigagg.Scheme, attrIdxs []int, rows []Row, attrOps [][]sigagg.Operand) (*Answer, error) {
	if len(attrOps) != len(rows) {
		return nil, fmt.Errorf("projection: %d rows but %d signature sets", len(rows), len(attrOps))
	}
	sum := sigagg.FolderFor(scheme).NewSum()
	for i, row := range rows {
		for _, idx := range attrIdxs {
			if idx < 0 || idx >= len(attrOps[i]) {
				return nil, fmt.Errorf("projection: attribute %d out of range for rid %d", idx, row.RID)
			}
			sum.Fold(attrOps[i][idx])
		}
	}
	agg, err := sum.Encode(nil)
	if err != nil {
		return nil, err
	}
	return &Answer{AttrIdxs: attrIdxs, Rows: rows, Agg: agg}, nil
}

// Digests reconstructs the attribute digests the aggregate must cover,
// row by row. The returned slices are views of one flat digest array,
// hashed through one Writer.
func (a *Answer) Digests() ([][]byte, error) {
	flat := make([]digest.Digest, len(a.Rows)*len(a.AttrIdxs))
	out := make([][]byte, 0, len(flat))
	w := digest.NewWriter(preimageHint)
	for _, row := range a.Rows {
		if len(row.Values) != len(a.AttrIdxs) {
			return nil, fmt.Errorf("projection: row rid %d has %d values, want %d",
				row.RID, len(row.Values), len(a.AttrIdxs))
		}
		for k, idx := range a.AttrIdxs {
			d := &flat[len(out)]
			*d = AttrDigest(w, row.RID, idx, row.Values[k], row.TS)
			out = append(out, d[:])
		}
	}
	return out, nil
}

// identityProjection opens a projection answer's identity; chain's is
// 'c'.
const identityProjection = 'p'

// AppendIdentity appends the answer's identity to dst: an injective,
// length-prefixed serialization of everything its digests and aggregate
// read — the slots, every row's rid, ts and values, and the aggregate —
// tagged as a projection's. Two answers with equal identities have equal
// Digests (or both fail them) and Agg; chain.(*Answer).AppendIdentity is
// the same for a chained answer.
func (a *Answer) AppendIdentity(dst []byte) []byte {
	dst = append(dst, identityProjection)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(a.AttrIdxs)))
	for _, idx := range a.AttrIdxs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(idx))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(a.Rows)))
	for i := range a.Rows {
		row := &a.Rows[i]
		dst = binary.BigEndian.AppendUint64(dst, row.RID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(row.TS))
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(row.Values)))
		for _, v := range row.Values {
			dst = appendBytes(dst, v)
		}
	}
	return appendBytes(dst, a.Agg)
}

// appendBytes appends len‖b.
func appendBytes(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(len(b))), b...)
}

// Verify checks that every projected value is authentic and sits in the
// claimed record and attribute position.
func Verify(scheme sigagg.Scheme, pub sigagg.PublicKey, a *Answer) error {
	if a == nil {
		return fmt.Errorf("%w: nil answer", sigagg.ErrVerify)
	}
	ds, err := a.Digests()
	if err != nil {
		return fmt.Errorf("%w: %v", sigagg.ErrVerify, err)
	}
	return scheme.AggregateVerify(pub, ds, a.Agg)
}
