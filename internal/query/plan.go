// Package query is the planner and executor for authenticated
// select-project-join requests over a multi-relation catalog.
//
// A client describes a query declaratively (Spec): a selection range on
// an outer relation (§3.3), an optional projection onto a subset of its
// attribute slots (§3.4), and an optional PK equi-join against an inner
// relation (§3.5), each at most once. The spec is the plan: the selection
// is pushed into the outer relation's authenticated range scan, the
// projection rides that scan's attribute sideband, and the join resolves
// the selected keys against the inner relation in as few range scans as
// its contents allow.
//
// A plan has one canonical flat binary encoding (Marshal/UnmarshalPlan).
// Those bytes travel verbatim in the 'P' wire frame and double as the
// answer cache's key, so two clients issuing the same σ/π/⋈ share one
// cached composite answer. A range selection is the plan with no operator
// flags.
package query

import (
	"encoding/binary"
	"errors"
	"fmt"

	"authdb/internal/join"
)

// Spec is the declarative form of one query, and the plan that runs it:
// π_Attrs( σ_{Lo<=key<=Hi}(Rel) ⋈_{key} Join.Rel ).
type Spec struct {
	Rel    string
	Lo, Hi int64
	Attrs  []int     // projected attribute slots of Rel; nil = no projection
	Join   *JoinSpec // nil = plain selection
}

// JoinSpec names the inner relation of a PK equi-join and the
// unmatched-proof mechanism (§3.5 BV boundaries or certified Bloom
// filters with BV fallback).
type JoinSpec struct {
	Rel    string
	Method join.Method
}

const (
	maxAttrs   = 1024
	maxRelName = 256
	maxSlot    = 1<<32 - 1 // a slot travels as a uint32

	// The flags byte after the selection.
	flagProject = 1 << 0
	flagJoin    = 1 << 1
)

// Validate is the one rule book for a plan, whether built in process
// (a client) or received (UnmarshalPlan): everything it
// accepts the encoding carries exactly.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("query: no plan")
	}
	if err := checkSelection(len(s.Rel), s.Lo, s.Hi); err != nil {
		return err
	}
	if len(s.Attrs) > maxAttrs {
		return fmt.Errorf("query: %d projected attributes, at most %d", len(s.Attrs), maxAttrs)
	}
	for _, a := range s.Attrs {
		if a < 0 || int64(a) > maxSlot {
			return fmt.Errorf("query: attribute slot %d outside [0, 2^32)", a)
		}
	}
	if s.Join != nil {
		if err := checkRel(len(s.Join.Rel)); err != nil {
			return err
		}
		if s.Join.Method != join.BV && s.Join.Method != join.BF {
			return fmt.Errorf("query: unknown join method %d", s.Join.Method)
		}
	}
	return nil
}

// checkSelection holds the outer relation's name length and the selected
// range to Validate's rules; bareScan applies it to a plan it reads
// without making a Spec.
func checkSelection(rel int, lo, hi int64) error {
	if err := checkRel(rel); err != nil {
		return err
	}
	if lo > hi {
		return fmt.Errorf("query: inverted range [%d, %d]", lo, hi)
	}
	return nil
}

func checkRel(n int) error {
	if n == 0 || n > maxRelName {
		return fmt.Errorf("query: relation name of %d bytes, want 1 to %d", n, maxRelName)
	}
	return nil
}

// ---- canonical binary plan encoding ----
//
// Flat, length-prefixed, no floats, no maps:
//
//	u16 len, rel | i64 lo | i64 hi | u8 flags
//	[flags&1] u16 count, count × u32 slot
//	[flags&2] u8 method | u16 len, inner rel
//
// Every field is read back as written and nothing else is accepted, so a
// plan the decoder accepts re-encodes to its own bytes and those bytes
// are a valid cache key.

// AppendTo appends the plan's canonical encoding to buf. Only a plan
// Validate accepts is encoded faithfully.
func (s *Spec) AppendTo(buf []byte) []byte {
	buf = appendName(buf, s.Rel)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Lo))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Hi))
	var flags byte
	if s.Attrs != nil {
		flags |= flagProject
	}
	if s.Join != nil {
		flags |= flagJoin
	}
	buf = append(buf, flags)
	if s.Attrs != nil {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s.Attrs)))
		for _, a := range s.Attrs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(a))
		}
	}
	if s.Join != nil {
		buf = append(buf, byte(s.Join.Method))
		buf = appendName(buf, s.Join.Rel)
	}
	return buf
}

func appendName(buf []byte, name string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	return append(buf, name...)
}

// planReader reads the encoding as views of the plan bytes.
type planReader struct {
	data []byte // what is left to read
	err  error  // the first short read
}

var errTruncated = errors.New("query: truncated plan")

// next returns the next n bytes. Past the end it records errTruncated and
// returns eight zero bytes — enough for any fixed-size field, so those
// reads need no check of their own.
func (r *planReader) next(n int) []byte {
	if r.err != nil || n > len(r.data) {
		r.err = errTruncated
		return make([]byte, 8)
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *planReader) u8() byte     { return r.next(1)[0] }
func (r *planReader) u16() int     { return int(binary.BigEndian.Uint16(r.next(2))) }
func (r *planReader) i64() int64   { return int64(binary.BigEndian.Uint64(r.next(8))) }
func (r *planReader) name() []byte { return r.next(r.u16()) }

// end refuses bytes past the plan.
func (r *planReader) end() error {
	if r.err == nil && len(r.data) != 0 {
		r.err = fmt.Errorf("query: %d trailing plan bytes", len(r.data))
	}
	return r.err
}

// bareScan reads a plan with no operator flags — a range selection on
// one relation — without allocating. Anything else, a malformed
// selection included, is for UnmarshalPlan to read or refuse.
func bareScan(data []byte) (rel []byte, lo, hi int64, ok bool) {
	r := planReader{data: data}
	rel, lo, hi = r.name(), r.i64(), r.i64()
	if r.u8() != 0 || r.end() != nil {
		return nil, 0, 0, false
	}
	return rel, lo, hi, checkSelection(len(rel), lo, hi) == nil
}

// UnmarshalPlan decodes and validates plan bytes received from an
// untrusted client. The encoding is canonical: bytes it accepts are the
// bytes the returned plan marshals to.
func UnmarshalPlan(data []byte) (*Spec, error) {
	r := planReader{data: data}
	s := &Spec{Rel: string(r.name()), Lo: r.i64(), Hi: r.i64()}
	flags := r.u8()
	if r.err == nil && flags&^(flagProject|flagJoin) != 0 {
		return nil, fmt.Errorf("query: bad plan flags %#x", flags)
	}
	if flags&flagProject != 0 {
		n := r.u16()
		slots := r.next(4 * n) // bounds the allocation by the bytes present
		if r.err == nil {
			s.Attrs = make([]int, n)
			for i := range s.Attrs {
				s.Attrs[i] = int(binary.BigEndian.Uint32(slots[4*i:]))
			}
		}
	}
	if flags&flagJoin != 0 {
		s.Join = &JoinSpec{Method: join.Method(r.u8())}
		s.Join.Rel = string(r.name())
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
