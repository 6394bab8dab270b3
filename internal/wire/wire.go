// Package wire provides the binary encoding of the protocol messages
// that cross trust boundaries: the DataAggregator's dissemination
// messages (DA → query server), and the server's answers (server →
// user). The format is deliberately simple — a version byte, then
// length-prefixed fields in fixed order — so a verifier implementation
// in any language can parse it, and so corrupted or truncated inputs
// fail loudly before any cryptographic check.
//
// Custody of decoded bytes: DecodeAnswer and DecodeComposite return
// records, attribute values and aggregates that alias the frame they
// were given, and the frame belongs to the result from then on — the
// verifying client reads each answer frame into a buffer of its own and
// never writes to it again. Whatever outlives the answer is copied where
// it is retained: certified summaries, which a session keeps, are copied
// out of every frame. The dissemination, bootstrap and WAL decoders
// (DecodeUpdateMsg, DecodeBootstrap, DecodeWalRecord), whose records a
// server stores, copy everything, so their input buffer can be reused.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/sigagg"
)

// bufPool recycles encode buffers so steady-state senders allocate
// nothing per message. Buffers that grew beyond maxPooled are dropped
// rather than pinned in the pool.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooled = 1 << 20

// GetBuffer returns an empty pooled buffer for the Append* encoders.
func GetBuffer() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuffer recycles a buffer previously returned by GetBuffer or an
// Append* encoder. The caller must not use buf afterwards.
func PutBuffer(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxPooled {
		return
	}
	buf = buf[:0]
	bufPool.Put(&buf)
}

// Version is the wire-format version byte.
const Version = 1

// ErrCorrupt is returned (wrapped) for any malformed input.
var ErrCorrupt = errors.New("wire: corrupt message")

// maxLen bounds any element count, guarding against allocation bombs
// from hostile servers. A length-prefixed field is bounded by the bytes
// present instead (reader.view).
const maxLen = 1 << 28

type writer struct{ buf []byte }

func (w *writer) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) bytes(p []byte) {
	w.u64(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

type reader struct {
	buf []byte
	off int
	// alias makes bytes return views of buf instead of copies; the answer
	// and composite decoders set it (see the package comment).
	alias bool
}

// remaining is the number of unread bytes, the bound on any count the
// input may claim before a decoder allocates by it.
func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated byte", ErrCorrupt)
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated integer", ErrCorrupt)
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

// view returns the next length-prefixed field as a slice of buf, capped
// so that appending to it cannot reach the bytes that follow.
func (r *reader) view() ([]byte, error) {
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: truncated field (%d bytes)", ErrCorrupt, n)
	}
	end := r.off + int(n)
	out := r.buf[r.off:end:end]
	r.off = end
	return out, nil
}

// bytes returns the next length-prefixed field under the reader's
// custody: a view of buf when aliasing, a copy otherwise.
func (r *reader) bytes() ([]byte, error) {
	if r.alias {
		return r.view()
	}
	return r.owned()
}

// owned returns the next length-prefixed field as a copy, whatever the
// reader's custody: for values the receiver retains past the message.
func (r *reader) owned() ([]byte, error) {
	v, err := r.view()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

// ---- records ----

func putRecord(w *writer, rec *chain.Record) {
	w.u64(rec.RID)
	w.i64(rec.Key)
	w.i64(rec.TS)
	w.u64(uint64(len(rec.Attrs)))
	for _, a := range rec.Attrs {
		w.bytes(a)
	}
}

// getRecord decodes one record into rec; its attribute values follow
// the reader's custody. Their slice headers are appended to slab, which
// is returned, and rec.Attrs is cut from it: the records of one answer
// body share one array (getAnswerBody), where a record a server stores
// gets its own (a nil slab). A slab without room is replaced by one with
// room for this record and left-1 more of its shape; the records already
// cut from the old one keep it.
func getRecord(r *reader, rec *chain.Record, slab [][]byte, left int) ([][]byte, error) {
	var err error
	if rec.RID, err = r.u64(); err != nil {
		return slab, err
	}
	if rec.Key, err = r.i64(); err != nil {
		return slab, err
	}
	if rec.TS, err = r.i64(); err != nil {
		return slab, err
	}
	// Every attribute costs at least its 8-byte length prefix: a count the
	// bytes present cannot hold is refused before anything is sized by it.
	n, err := r.count(8)
	if err != nil {
		return slab, err
	}
	if n == 0 {
		return slab, nil // Attrs stays nil, as it encodes
	}
	if cap(slab)-len(slab) < n {
		// Room for left records of n attributes, but never for more than
		// the bytes present could hold.
		room := r.remaining() / 8
		if left <= room/n {
			room = n * left
		}
		slab = make([][]byte, 0, room)
	}
	start := len(slab)
	for i := 0; i < n; i++ {
		v, err := r.bytes()
		if err != nil {
			return slab, err
		}
		slab = append(slab, v)
	}
	rec.Attrs = slab[start:len(slab):len(slab)]
	return slab, nil
}

func putRef(w *writer, ref chain.Ref) {
	w.i64(ref.Key)
	w.u64(ref.RID)
}

func getRef(r *reader) (chain.Ref, error) {
	key, err := r.i64()
	if err != nil {
		return chain.Ref{}, err
	}
	rid, err := r.u64()
	if err != nil {
		return chain.Ref{}, err
	}
	return chain.Ref{Key: key, RID: rid}, nil
}

// ---- summaries ----

func putSummary(w *writer, s *freshness.Summary) {
	w.u64(s.Seq)
	w.i64(s.PeriodStart)
	w.i64(s.TS)
	w.bytes(s.Compressed)
	w.bytes(s.Sig)
}

func getSummary(r *reader) (freshness.Summary, error) {
	var s freshness.Summary
	var err error
	if s.Seq, err = r.u64(); err != nil {
		return s, err
	}
	if s.PeriodStart, err = r.i64(); err != nil {
		return s, err
	}
	if s.TS, err = r.i64(); err != nil {
		return s, err
	}
	// A session holds certified summaries long after the answer that
	// carried them: copied, or each would pin a whole answer frame.
	if s.Compressed, err = r.owned(); err != nil {
		return s, err
	}
	sig, err := r.owned()
	if err != nil {
		return s, err
	}
	s.Sig = sigagg.Signature(sig)
	return s, nil
}

// ---- UpdateMsg (DA -> query server) ----

// The byte after a message's deletes says which optional sections follow,
// in this order. A message without a filter is encoded as it was when the
// byte was the summary flag alone.
const (
	updFlagSummary = 1 << 0
	updFlagFilter  = 1 << 1
)

// AppendUpdateMsg appends the encoding of msg to buf (obtained from
// GetBuffer to avoid per-message allocations) and returns the extended
// buffer.
func AppendUpdateMsg(buf []byte, msg *core.UpdateMsg) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindUpdate)
	w.i64(msg.TS)
	w.u64(uint64(len(msg.Upserts)))
	for _, sr := range msg.Upserts {
		putRecord(w, sr.Rec)
		w.bytes(sr.Sig)
		// Projection-mode sideband: the attribute values and per-slot
		// signatures of a stripped chained record (§3.4).
		if sr.AttrVals != nil || sr.AttrSigs != nil {
			w.u8(1)
			w.u64(uint64(len(sr.AttrVals)))
			for _, v := range sr.AttrVals {
				w.bytes(v)
			}
			w.u64(uint64(len(sr.AttrSigs)))
			for _, s := range sr.AttrSigs {
				w.bytes(s)
			}
		} else {
			w.u8(0)
		}
	}
	w.u64(uint64(len(msg.Deletes)))
	for _, del := range msg.Deletes {
		putRef(w, del)
	}
	var flags byte
	if msg.Summary != nil {
		flags |= updFlagSummary
	}
	if msg.Filter != nil {
		flags |= updFlagFilter
	}
	w.u8(flags)
	if msg.Summary != nil {
		putSummary(w, msg.Summary)
	}
	if fc := msg.Filter; fc != nil {
		// The re-certified filter (§3.5): its time, then every partition
		// with its certification, as a join section lists them.
		w.i64(fc.TS)
		w.u64(uint64(len(fc.Sigs)))
		for i, sig := range fc.Sigs {
			putPartition(w, &fc.PF.Partitions[i], sig)
		}
	}
	return w.buf
}

// DecodeUpdateMsg parses a dissemination message.
func DecodeUpdateMsg(data []byte) (*core.UpdateMsg, error) {
	r := &reader{buf: data}
	if err := header(r, KindUpdate); err != nil {
		return nil, err
	}
	msg := &core.UpdateMsg{}
	var err error
	if msg.TS, err = r.i64(); err != nil {
		return nil, err
	}
	nUp, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nUp > maxLen {
		return nil, fmt.Errorf("%w: upsert count %d", ErrCorrupt, nUp)
	}
	for i := uint64(0); i < nUp; i++ {
		rec := &chain.Record{}
		if _, err := getRecord(r, rec, nil, 1); err != nil {
			return nil, err
		}
		sig, err := r.bytes()
		if err != nil {
			return nil, err
		}
		sr := core.SignedRecord{Rec: rec, Sig: sigagg.Signature(sig)}
		hasSide, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch hasSide {
		case 1:
			nv, err := r.u64()
			if err != nil {
				return nil, err
			}
			if nv > maxLen {
				return nil, fmt.Errorf("%w: sideband value count %d", ErrCorrupt, nv)
			}
			sr.AttrVals = make([][]byte, 0, nv)
			for j := uint64(0); j < nv; j++ {
				v, err := r.bytes()
				if err != nil {
					return nil, err
				}
				sr.AttrVals = append(sr.AttrVals, v)
			}
			ns, err := r.u64()
			if err != nil {
				return nil, err
			}
			if ns > maxLen {
				return nil, fmt.Errorf("%w: sideband signature count %d", ErrCorrupt, ns)
			}
			sr.AttrSigs = make([]sigagg.Signature, 0, ns)
			for j := uint64(0); j < ns; j++ {
				s, err := r.bytes()
				if err != nil {
					return nil, err
				}
				sr.AttrSigs = append(sr.AttrSigs, sigagg.Signature(s))
			}
		case 0:
		default:
			return nil, fmt.Errorf("%w: bad sideband flag %d", ErrCorrupt, hasSide)
		}
		msg.Upserts = append(msg.Upserts, sr)
	}
	nDel, err := r.count(16)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nDel; i++ {
		del, err := getRef(r)
		if err != nil {
			return nil, err
		}
		msg.Deletes = append(msg.Deletes, del)
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^(updFlagSummary|updFlagFilter) != 0 {
		return nil, fmt.Errorf("%w: bad update flags %#x", ErrCorrupt, flags)
	}
	if flags&updFlagSummary != 0 {
		s, err := getSummary(r)
		if err != nil {
			return nil, err
		}
		msg.Summary = &s
	}
	if flags&updFlagFilter != 0 {
		fc := &join.FilterCert{PF: &bloom.PartitionedFilter{}}
		if fc.TS, err = r.i64(); err != nil {
			return nil, err
		}
		// A partition is at least its bounds, a filter header and two
		// length prefixes.
		n, err := r.count(56)
		if err != nil {
			return nil, err
		}
		fc.PF.Partitions, fc.Sigs = make([]bloom.Partition, n), make([]sigagg.Signature, n)
		for i := range fc.Sigs {
			if fc.Sigs[i], err = getPartition(r, &fc.PF.Partitions[i]); err != nil {
				return nil, err
			}
		}
		msg.Filter = fc
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return msg, nil
}

// ---- Answer: a leaf composite held as a core.Answer ----
//
// The protocol has one answer message, the composite ('C', composite.go).
// AppendAnswer, AppendAnswerCore and DecodeAnswer are thin
// wrappers over its codec for callers that hold a core.Answer — the
// in-process form of a range answer — rather than a Composite: a
// composite with no operator sections and exactly one summary tail,
// under core.DefaultRelation. They add nothing to the format;
// benchmark/layers.go times encode and decode through them.

// AppendAnswer appends ans as a leaf composite — AppendAnswerCore, then
// its summaries as the one tail — to buf and returns the extended
// buffer. On error nothing has been appended and the caller still owns
// buf — a pooled buffer must then be recycled by the caller (exactly
// once; see server.Codec for the canonical error path).
func AppendAnswer(buf []byte, ans *core.Answer) ([]byte, error) {
	out, err := AppendAnswerCore(buf, ans)
	if err != nil {
		return nil, err
	}
	return AppendRelTails(out, []RelTail{{Rel: core.DefaultRelation, Summaries: ans.Summaries}}), nil
}

// AppendAnswerCore appends the core of the leaf composite whose scan is
// ans.Chain (AppendCompositeCore): cache-stable bytes that depend only
// on the answered records, to which a serving layer appends each
// client's tails.
func AppendAnswerCore(buf []byte, ans *core.Answer) ([]byte, error) {
	if ans == nil {
		return nil, fmt.Errorf("wire: nil answer")
	}
	return AppendCompositeCore(buf, &Composite{Outer: ans.Chain})
}

// putAnswerBody encodes one chained answer — the scan of a composite
// ('C') message and each of its join proofs: range, records, boundary
// references, optional anchor, aggregate.
func putAnswerBody(w *writer, ca *chain.Answer) {
	w.i64(ca.Lo)
	w.i64(ca.Hi)
	w.u64(uint64(len(ca.Records)))
	for _, rec := range ca.Records {
		putRecord(w, rec)
	}
	putRef(w, ca.Left)
	putRef(w, ca.Right)
	if ca.Anchor != nil {
		w.u8(1)
		putRecord(w, ca.Anchor)
		putRef(w, ca.AnchorLeft)
	} else {
		w.u8(0)
	}
	w.bytes(ca.Agg)
}

// getAnswerBody decodes what putAnswerBody wrote.
func getAnswerBody(r *reader) (*chain.Answer, error) {
	ca := &chain.Answer{}
	var err error
	if ca.Lo, err = r.i64(); err != nil {
		return nil, err
	}
	if ca.Hi, err = r.i64(); err != nil {
		return nil, err
	}
	nRecs, err := r.u64()
	if err != nil {
		return nil, err
	}
	// A record costs at least its 32 fixed bytes (rid, key, ts, attribute
	// count), so the bytes present bound the count before it sizes the one
	// array the answer's records share.
	if nRecs > uint64(r.remaining()/32) {
		return nil, fmt.Errorf("%w: record count %d in %d bytes", ErrCorrupt, nRecs, r.remaining())
	}
	if nRecs > 0 {
		recs := make([]chain.Record, nRecs)
		ca.Records = make([]*chain.Record, nRecs)
		var attrs [][]byte // the slab the records' Attrs are cut from
		for i := range recs {
			if attrs, err = getRecord(r, &recs[i], attrs, len(recs)-i); err != nil {
				return nil, err
			}
			ca.Records[i] = &recs[i]
		}
	}
	if ca.Left, err = getRef(r); err != nil {
		return nil, err
	}
	if ca.Right, err = getRef(r); err != nil {
		return nil, err
	}
	hasAnchor, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch hasAnchor {
	case 1:
		ca.Anchor = &chain.Record{}
		if _, err = getRecord(r, ca.Anchor, nil, 1); err != nil {
			return nil, err
		}
		if ca.AnchorLeft, err = getRef(r); err != nil {
			return nil, err
		}
	case 0:
	default:
		return nil, fmt.Errorf("%w: bad anchor flag %d", ErrCorrupt, hasAnchor)
	}
	agg, err := r.bytes()
	if err != nil {
		return nil, err
	}
	ca.Agg = sigagg.Signature(agg)
	return ca, nil
}

// DecodeAnswer parses what AppendAnswer wrote (DecodeComposite, so the
// answer's records, attribute values and aggregate alias data, which
// belongs to the result from here on, and its summaries are copies). A
// composite with operator sections, or whose tails are not the one of
// core.DefaultRelation, is not a core.Answer and is refused.
func DecodeAnswer(data []byte) (*core.Answer, error) {
	c, err := DecodeComposite(data, core.DefaultRelation)
	if err != nil {
		return nil, err
	}
	if c.Proj != nil || c.Join != nil || len(c.Tails) != 1 || c.Tails[0].Rel != core.DefaultRelation {
		return nil, fmt.Errorf("%w: not a bare scan of relation %q with its one tail", ErrCorrupt, core.DefaultRelation)
	}
	return &core.Answer{Chain: c.Outer, Summaries: c.Tails[0].Summaries}, nil
}

func header(r *reader, kind byte) error {
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	k, err := r.u8()
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("%w: message kind %q, want %q", ErrCorrupt, k, kind)
	}
	return nil
}
