// Package chain implements the signature-chaining technique of §3.3
// (after Pang et al. and Narasimha & Tsudik): each record's signature
// covers the record content plus references to its immediate left and
// right neighbours in indexed-attribute order, so that a contiguous run
// of records can be proven complete with just two boundary references
// and one aggregate signature.
//
// Neighbour references carry both the neighbour's key and its rid: with
// key alone, duplicate join-attribute values (e.g. S.B in §3.5) would
// let a server drop one of several equal-keyed records undetected.
package chain

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// Sentinel keys marking the domain edges. The data aggregator chains the
// first (last) record of the relation to the Min (Max) sentinel.
const (
	MinKey = math.MinInt64
	MaxKey = math.MaxInt64
)

// Ref identifies a record position in indexed-attribute order.
type Ref struct {
	Key int64
	RID uint64
}

// MinRef and MaxRef are the sentinel neighbour references.
var (
	MinRef = Ref{Key: MinKey}
	MaxRef = Ref{Key: MaxKey, RID: math.MaxUint64}
)

// Less orders refs by (Key, RID).
func (r Ref) Less(o Ref) bool {
	if r.Key != o.Key {
		return r.Key < o.Key
	}
	return r.RID < o.RID
}

// Record is the relation schema of §3.1: ⟨rid, A1..AM, ts⟩ with Key the
// indexed attribute Aind.
type Record struct {
	RID   uint64
	Key   int64 // the indexed attribute Aind
	Attrs [][]byte
	TS    int64
}

// Ref returns the record's own chain reference.
func (r *Record) Ref() Ref { return Ref{Key: r.Key, RID: r.RID} }

// Digest computes the chained record digest
// h(rid | Aind | A1..AM | ts | left | right), the message the data
// aggregator signs for record r with neighbours left and right.
func Digest(r *Record, left, right Ref) digest.Digest {
	return digestWith(digest.NewWriter(preimageLen(r)), r, left, right)
}

// preimageLen is the exact length of the byte string Digest hashes for
// r. A Writer sized by it copies the record's bytes once, not once per
// buffer growth.
func preimageLen(r *Record) int {
	n := 64 + 8*len(r.Attrs) // rid, key, count, ts, two refs; a length per attribute
	for _, a := range r.Attrs {
		n += len(a)
	}
	return n
}

// digestWith is Digest through a caller-owned Writer, which it resets:
// a run of records shares one buffer instead of allocating one each.
func digestWith(w *digest.Writer, r *Record, left, right Ref) digest.Digest {
	w.Reset()
	w.PutUint64(r.RID)
	w.PutInt64(r.Key)
	w.PutUint64(uint64(len(r.Attrs)))
	for _, a := range r.Attrs {
		w.PutBytes(a)
	}
	w.PutInt64(r.TS)
	w.PutInt64(left.Key)
	w.PutUint64(left.RID)
	w.PutInt64(right.Key)
	w.PutUint64(right.RID)
	return w.Sum()
}

// Answer is the verifiable result of a range selection σ_{lo<=Aind<=hi}.
//
// For a non-empty answer, Records holds the qualifying records in
// (Key, RID) order and Left/Right the boundary references enclosing
// them. For an empty answer the proof is anchored on the boundary
// record immediately left of the range: Anchor is that record,
// AnchorLeft its own left neighbour, and Right its right neighbour
// (which must lie beyond the range). Agg is the aggregate signature over
// the chained digests of Records (or of the Anchor).
type Answer struct {
	Lo, Hi     int64
	Records    []*Record
	Left       Ref
	Right      Ref
	Anchor     *Record
	AnchorLeft Ref
	Agg        sigagg.Signature
}

// Digests reconstructs the chained digests the aggregate signature must
// cover, in answer order. The returned slices are views of one flat
// digest array per answer.
func (a *Answer) Digests() [][]byte {
	n := a.digestCount()
	if n == 0 {
		return nil
	}
	flat := make([]digest.Digest, n)
	a.digestInto(digest.NewWriter(a.preimageHint()), flat, 0, n)
	return views(flat)
}

// digestCount is the number of digests the aggregate covers: one per
// record, or the anchor's alone for an empty answer.
func (a *Answer) digestCount() int {
	if len(a.Records) == 0 && a.Anchor != nil {
		return 1
	}
	return len(a.Records)
}

// preimageHint sizes a Writer for the answer's first digest.
func (a *Answer) preimageHint() int {
	if len(a.Records) == 0 {
		return preimageLen(a.Anchor)
	}
	return preimageLen(a.Records[0])
}

// views returns flat's digests as the byte slices verification takes.
func views(flat []digest.Digest) [][]byte {
	out := make([][]byte, len(flat))
	for i := range flat {
		out[i] = flat[i][:]
	}
	return out
}

// digestInto fills flat[lo:hi] with digests lo..hi-1 of the answer's
// digestCount, hashing them through w. Each record's neighbour
// references come from the answer itself, so disjoint chunks can be
// computed concurrently, each with a Writer of its own.
func (a *Answer) digestInto(w *digest.Writer, flat []digest.Digest, lo, hi int) {
	if len(a.Records) == 0 {
		if lo < hi {
			flat[lo] = digestWith(w, a.Anchor, a.AnchorLeft, a.Right)
		}
		return
	}
	for i := lo; i < hi; i++ {
		left := a.Left
		if i > 0 {
			left = a.Records[i-1].Ref()
		}
		right := a.Right
		if i < len(a.Records)-1 {
			right = a.Records[i+1].Ref()
		}
		flat[i] = digestWith(w, a.Records[i], left, right)
	}
}

// digestChunk is the records-per-work-item grain of the parallel digest
// builder: large enough that goroutine handoff is negligible against
// the hashing it covers, small enough to balance ragged answers.
const digestChunk = 512

// DigestsParallel reconstructs the chained digests using up to par
// goroutines, falling back to the serial Digests for small answers.
func (a *Answer) DigestsParallel(par int) [][]byte {
	if par <= 1 || len(a.Records) < 2*digestChunk {
		return a.Digests()
	}
	flat := make([]digest.Digest, len(a.Records))
	sigagg.ForChunks(len(a.Records), par, digestChunk, func(lo, hi int) error {
		a.digestInto(digest.NewWriter(preimageLen(a.Records[lo])), flat, lo, hi)
		return nil
	})
	return views(flat)
}

// identityChain opens a chain answer's identity; projection's is 'p'.
const identityChain = 'c'

// AppendIdentity appends the answer's identity to dst: an injective,
// length-prefixed serialization of everything its digests and aggregate
// read — the range, every record's rid, key, ts and attributes, both
// boundary references, the anchor (flagged present or absent) and its
// left reference, and the aggregate — tagged as a chain's. Two answers
// with equal identities have equal Digests and Agg, so a verifier may
// name the claim by a hash of its identity instead of its digests
// (core's claim memo).
func (a *Answer) AppendIdentity(dst []byte) []byte {
	dst = append(dst, identityChain)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Lo))
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Hi))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(a.Records)))
	for _, r := range a.Records {
		dst = appendRecord(dst, r)
	}
	dst = appendRef(dst, a.Left)
	dst = appendRef(dst, a.Right)
	if a.Anchor == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendRecord(dst, a.Anchor)
		dst = appendRef(dst, a.AnchorLeft)
	}
	return appendBytes(dst, a.Agg)
}

func appendRecord(dst []byte, r *Record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.RID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Key))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.TS))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(r.Attrs)))
	for _, v := range r.Attrs {
		dst = appendBytes(dst, v)
	}
	return dst
}

func appendRef(dst []byte, r Ref) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Key))
	return binary.BigEndian.AppendUint64(dst, r.RID)
}

// appendBytes appends len‖b.
func appendBytes(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(len(b))), b...)
}

// VOSize reports the proof size beyond the records themselves, given the
// scheme's signature size: one aggregate signature plus the boundary
// references, matching the accounting of §3.3 (signature + two boundary
// values).
func (a *Answer) VOSize(sigSize int) int {
	size := sigSize + 2*12 // two (key, rid) refs
	if a.Anchor != nil {
		size += 12 // the anchor's extra left reference
	}
	return size
}

// Verify checks authenticity and completeness of the answer for the
// range [lo, hi] under the signer pub.
func Verify(scheme sigagg.Scheme, pub sigagg.PublicKey, a *Answer) error {
	if a == nil {
		return fmt.Errorf("%w: nil answer", sigagg.ErrVerify)
	}
	if err := a.CheckStructure(); err != nil {
		return err
	}
	return scheme.AggregateVerify(pub, a.Digests(), a.Agg)
}

// CheckStructure validates everything about the answer that needs no
// cryptography: record ordering, range membership, boundary enclosure
// and anchor placement. The aggregate signature then attests that
// exactly this structure was certified.
func (a *Answer) CheckStructure() error {
	lo, hi := a.Lo, a.Hi
	if len(a.Records) == 0 {
		// Empty answer: the anchor's chain edge must jump the whole
		// range. The anchor is the record on either side of the gap:
		// left-anchored (anchor below lo, right neighbour above hi) or
		// right-anchored (anchor above hi, left neighbour below lo).
		if a.Anchor == nil {
			return fmt.Errorf("%w: empty answer without anchor", sigagg.ErrVerify)
		}
		switch {
		case a.Anchor.Key < lo:
			if a.Right.Key <= hi {
				return fmt.Errorf("%w: anchor's right neighbour %d inside range [%d,%d]",
					sigagg.ErrVerify, a.Right.Key, lo, hi)
			}
		case a.Anchor.Key > hi:
			if a.AnchorLeft.Key >= lo {
				return fmt.Errorf("%w: anchor's left neighbour %d inside range [%d,%d]",
					sigagg.ErrVerify, a.AnchorLeft.Key, lo, hi)
			}
		default:
			return fmt.Errorf("%w: anchor key %d inside range [%d,%d]",
				sigagg.ErrVerify, a.Anchor.Key, lo, hi)
		}
	} else {
		if a.Anchor != nil {
			return fmt.Errorf("%w: non-empty answer with anchor", sigagg.ErrVerify)
		}
		// Records strictly ordered and inside the range.
		for i, r := range a.Records {
			if r.Key < lo || r.Key > hi {
				return fmt.Errorf("%w: record %d outside range [%d,%d]",
					sigagg.ErrVerify, r.Key, lo, hi)
			}
			if i > 0 && !a.Records[i-1].Ref().Less(r.Ref()) {
				return fmt.Errorf("%w: records out of order", sigagg.ErrVerify)
			}
		}
		// Boundaries must enclose the range: left strictly below lo,
		// right strictly above hi (sentinels at the domain edges).
		if a.Left.Key >= lo {
			return fmt.Errorf("%w: left boundary %d not below range", sigagg.ErrVerify, a.Left.Key)
		}
		if a.Right.Key <= hi {
			return fmt.Errorf("%w: right boundary %d not above range", sigagg.ErrVerify, a.Right.Key)
		}
	}
	return nil
}

// Jobs is the part of verification that needs no key: the structural
// checks run per answer and the chained digests are recomputed in
// parallel on up to par goroutines (0 = GOMAXPROCS). It returns one job
// per answer, in answer order — jobs[i] is answers[i]'s signature claim,
// repeats included: a claim's identity is its verifier's business
// (core.Verifier.CheckClaims), not this package's. A caller holding
// further claims under the same signer appends them and closes
// everything with one batch.
func Jobs(answers []*Answer, par int) ([]sigagg.VerifyJob, error) {
	if len(answers) == 0 {
		return nil, nil
	}
	for _, a := range answers {
		if a == nil {
			return nil, fmt.Errorf("%w: nil answer", sigagg.ErrVerify)
		}
		if err := a.CheckStructure(); err != nil {
			return nil, err
		}
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	jobs := make([]sigagg.VerifyJob, len(answers))
	if len(answers) == 1 {
		// A single answer parallelizes inside its own digest list.
		jobs[0] = sigagg.VerifyJob{Digests: answers[0].DigestsParallel(par), Agg: answers[0].Agg}
		return jobs, nil
	}
	// One Writer, one flat digest array and one view array per chunk of
	// answers, sub-sliced per answer: a composite's hundred-odd
	// one-record probe proofs cost three allocations, not three each.
	// (CheckStructure passed, so every answer has at least one digest.)
	sigagg.ForChunks(len(answers), par, 1, func(lo, hi int) error {
		total := 0
		for _, a := range answers[lo:hi] {
			total += a.digestCount()
		}
		flat := make([]digest.Digest, total)
		vs := views(flat)
		w := digest.NewWriter(answers[lo].preimageHint())
		off := 0
		for i := lo; i < hi; i++ {
			a, n := answers[i], answers[i].digestCount()
			a.digestInto(w, flat[off:off+n], 0, n)
			jobs[i] = sigagg.VerifyJob{Digests: vs[off : off+n : off+n], Agg: a.Agg}
			off += n
		}
		return nil
	})
	return jobs, nil
}
