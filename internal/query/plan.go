// Package query is the streaming planner and executor for authenticated
// select-project-join requests over a multi-relation catalog.
//
// A client describes a query declaratively (Spec): a selection range on
// an outer relation, an optional projection onto a subset of attribute
// slots, and an optional PK equi-join against an inner relation. Plan
// compiles the spec into a small operator tree whose leaves are
// authenticated range scans. The default plan pushes the selection
// predicate into the outer scan leaf; the naive tree — kept only as the
// measured baseline for the pushdown win — scans the full key domain
// and filters above. Join probes against the inner relation fan out
// across the worker pool as independent subplans.
//
// The tree has a canonical binary encoding (Marshal/UnmarshalPlan).
// Those bytes travel verbatim in the 'P' wire frame and double as the
// plan-cache key, so two clients issuing the same σ/π/⋈ share one cached
// composite answer. A range selection is the plan that is one scan leaf.
package query

import (
	"encoding/binary"
	"fmt"

	"authdb/internal/chain"
	"authdb/internal/join"
)

// Spec is the declarative form of one query:
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

// Op enumerates the plan operators.
type Op uint8

const (
	// OpScan is an authenticated range-scan leaf over one relation.
	OpScan Op = iota + 1
	// OpFilter applies a residual σ above its child — present only in
	// the naive (no-pushdown) tree.
	OpFilter
	// OpProject projects its child's rows onto attribute slots.
	OpProject
	// OpJoin PK equi-joins its outer child against the inner Right scan.
	OpJoin
)

// String names the operator.
func (op Op) String() string {
	switch op {
	case OpScan:
		return "scan"
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpJoin:
		return "join"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Node is one operator of a plan tree.
type Node struct {
	Op     Op
	Rel    string      // OpScan: the scanned relation
	Lo, Hi int64       // OpScan: pushed range; OpFilter: residual range
	Attrs  []int       // OpProject: projected attribute slots
	Method join.Method // OpJoin: unmatched-proof mechanism
	Child  *Node       // unary input (nil for OpScan)
	Right  *Node       // OpJoin: inner scan leaf
}

// Plan compiles spec into an executable tree. With pushdown (the
// planner default) the selection range lands in the outer scan leaf, so
// the tree walk touches only the selected window. Without pushdown
// the leaf scans the full key domain and an OpFilter discards the rest
// above it — the baseline an optimizer must beat.
func Plan(spec *Spec, pushdown bool) (*Node, error) {
	if spec == nil || spec.Rel == "" {
		return nil, fmt.Errorf("query: plan needs an outer relation")
	}
	if spec.Lo > spec.Hi {
		return nil, fmt.Errorf("query: inverted range [%d, %d]", spec.Lo, spec.Hi)
	}
	for _, a := range spec.Attrs {
		if a < 0 {
			return nil, fmt.Errorf("query: negative attribute slot %d", a)
		}
	}
	var n *Node
	if pushdown {
		n = &Node{Op: OpScan, Rel: spec.Rel, Lo: spec.Lo, Hi: spec.Hi}
	} else {
		n = &Node{
			Op: OpFilter, Lo: spec.Lo, Hi: spec.Hi,
			Child: &Node{Op: OpScan, Rel: spec.Rel, Lo: chain.MinKey + 1, Hi: chain.MaxKey - 1},
		}
	}
	if spec.Join != nil {
		if spec.Join.Rel == "" {
			return nil, fmt.Errorf("query: join needs an inner relation")
		}
		if spec.Join.Method != join.BV && spec.Join.Method != join.BF {
			return nil, fmt.Errorf("query: unknown join method %d", spec.Join.Method)
		}
		n = &Node{
			Op: OpJoin, Method: spec.Join.Method, Child: n,
			// The inner leaf is a probe template: probes are point scans
			// σ_{key=v}, so its range is filled per probe at run time.
			Right: &Node{Op: OpScan, Rel: spec.Join.Rel},
		}
	}
	if spec.Attrs != nil {
		n = &Node{Op: OpProject, Attrs: spec.Attrs, Child: n}
	}
	return n, nil
}

// shape is a validated plan tree taken apart into its operators (at most
// one each, in Project→Join→Filter→Scan order). A plan is analyzed once,
// where it enters — UnmarshalPlan for one an untrusted client sent,
// Execute for one built in process — and the shape is what the executor
// is handed.
type shape struct {
	proj, jn, filter, scan *Node
}

// rank orders the operators by the depth they may appear at (0 = not an
// operator).
func rank(op Op) int {
	switch op {
	case OpProject:
		return 1
	case OpJoin:
		return 2
	case OpFilter:
		return 3
	case OpScan:
		return 4
	}
	return 0
}

func analyze(n *Node) (shape, error) {
	var s shape
	prev := 0 // operators must appear in strictly increasing depth
	for cur := n; cur != nil; cur = cur.Child {
		r := rank(cur.Op)
		if r == 0 {
			return s, fmt.Errorf("query: unknown operator %d", cur.Op)
		}
		if r <= prev {
			return s, fmt.Errorf("query: operator %s misplaced in plan", cur.Op)
		}
		prev = r
		switch cur.Op {
		case OpProject:
			s.proj = cur
		case OpJoin:
			s.jn = cur
			if cur.Right == nil || cur.Right.Op != OpScan || cur.Right.Rel == "" {
				return s, fmt.Errorf("query: join without an inner scan leaf")
			}
			if cur.Method != join.BV && cur.Method != join.BF {
				return s, fmt.Errorf("query: unknown join method %d", cur.Method)
			}
		case OpFilter:
			if cur.Lo > cur.Hi {
				return s, fmt.Errorf("query: inverted filter range [%d, %d]", cur.Lo, cur.Hi)
			}
			s.filter = cur
		case OpScan:
			if cur.Rel == "" {
				return s, fmt.Errorf("query: scan without a relation")
			}
			if cur.Lo > cur.Hi {
				return s, fmt.Errorf("query: inverted scan range [%d, %d]", cur.Lo, cur.Hi)
			}
			s.scan = cur
		}
	}
	if s.scan == nil {
		return s, fmt.Errorf("query: plan has no scan leaf")
	}
	return s, nil
}

// selection is the plan's effective selection range: the residual
// filter's if present, else the pushed scan range. This is what the plan
// cache keys on next to the plan bytes, and what the outer chain proof
// must cover.
func (s *shape) selection() (lo, hi int64) {
	if s.filter != nil {
		return s.filter.Lo, s.filter.Hi
	}
	return s.scan.Lo, s.scan.Hi
}

// ---- canonical binary plan encoding ----
//
// Pre-order, length-prefixed, no floats, no maps: the same tree always
// marshals to the same bytes, so plan bytes are a valid cache key.

const (
	// maxPlanBytes bounds what UnmarshalPlan will touch — plans are tiny
	// (a handful of operators); anything bigger is hostile.
	maxPlanBytes = 4096
	maxAttrs     = 1024
	maxRelName   = 256
)

// Marshal encodes the tree canonically.
func (n *Node) Marshal() []byte {
	return n.AppendTo(make([]byte, 0, 64))
}

// AppendTo appends the tree's canonical encoding to buf.
func (n *Node) AppendTo(buf []byte) []byte {
	if n == nil {
		return append(buf, 0)
	}
	buf = append(buf, byte(n.Op))
	switch n.Op {
	case OpScan:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.Rel)))
		buf = append(buf, n.Rel...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Lo))
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Hi))
	case OpFilter:
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Lo))
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Hi))
		buf = n.Child.AppendTo(buf)
	case OpProject:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.Attrs)))
		for _, a := range n.Attrs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(a))
		}
		buf = n.Child.AppendTo(buf)
	case OpJoin:
		buf = append(buf, byte(n.Method))
		buf = n.Child.AppendTo(buf)
		buf = n.Right.AppendTo(buf)
	}
	return buf
}

type planReader struct {
	data []byte
	pos  int
}

func (r *planReader) u8() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("query: truncated plan")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *planReader) u16() (int, error) {
	if r.pos+2 > len(r.data) {
		return 0, fmt.Errorf("query: truncated plan")
	}
	v := int(binary.BigEndian.Uint16(r.data[r.pos:]))
	r.pos += 2
	return v, nil
}

func (r *planReader) u64() (int64, error) {
	if r.pos+8 > len(r.data) {
		return 0, fmt.Errorf("query: truncated plan")
	}
	v := int64(binary.BigEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

// scan reads a scan leaf's fields; rel is a view of the plan bytes.
func (r *planReader) scan() (rel []byte, lo, hi int64, err error) {
	ln, err := r.u16()
	if err != nil {
		return nil, 0, 0, err
	}
	if ln == 0 || ln > maxRelName || r.pos+ln > len(r.data) {
		return nil, 0, 0, fmt.Errorf("query: bad relation name length %d", ln)
	}
	rel = r.data[r.pos : r.pos+ln]
	r.pos += ln
	if lo, err = r.u64(); err != nil {
		return nil, 0, 0, err
	}
	hi, err = r.u64()
	return rel, lo, hi, err
}

// bareScan reads a plan that is nothing but a valid scan leaf — a range
// selection on one relation — without building its tree. Anything else,
// a malformed leaf included, is for parsePlan to read or refuse.
func bareScan(data []byte) (rel []byte, lo, hi int64, ok bool) {
	if len(data) == 0 || len(data) > maxPlanBytes || Op(data[0]) != OpScan {
		return nil, 0, 0, false
	}
	r := planReader{data: data, pos: 1}
	rel, lo, hi, err := r.scan()
	return rel, lo, hi, err == nil && r.pos == len(data) && lo <= hi
}

func (r *planReader) node(depth int) (*Node, error) {
	if depth > 8 {
		return nil, fmt.Errorf("query: plan tree too deep")
	}
	op, err := r.u8()
	if err != nil {
		return nil, err
	}
	if op == 0 {
		return nil, nil
	}
	n := &Node{Op: Op(op)}
	switch n.Op {
	case OpScan:
		var rel []byte
		if rel, n.Lo, n.Hi, err = r.scan(); err != nil {
			return nil, err
		}
		n.Rel = string(rel)
	case OpFilter:
		if n.Lo, err = r.u64(); err != nil {
			return nil, err
		}
		if n.Hi, err = r.u64(); err != nil {
			return nil, err
		}
		if n.Child, err = r.node(depth + 1); err != nil {
			return nil, err
		}
	case OpProject:
		cnt, err := r.u16()
		if err != nil {
			return nil, err
		}
		if cnt > maxAttrs {
			return nil, fmt.Errorf("query: %d projected attributes", cnt)
		}
		n.Attrs = make([]int, cnt)
		for i := range n.Attrs {
			if r.pos+4 > len(r.data) {
				return nil, fmt.Errorf("query: truncated plan")
			}
			n.Attrs[i] = int(binary.BigEndian.Uint32(r.data[r.pos:]))
			r.pos += 4
		}
		if n.Child, err = r.node(depth + 1); err != nil {
			return nil, err
		}
	case OpJoin:
		m, err := r.u8()
		if err != nil {
			return nil, err
		}
		n.Method = join.Method(m)
		if n.Child, err = r.node(depth + 1); err != nil {
			return nil, err
		}
		if n.Right, err = r.node(depth + 1); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("query: unknown operator %d", op)
	}
	return n, nil
}

// UnmarshalPlan decodes and structurally validates plan bytes received
// from an untrusted client. The encoding is canonical: bytes it accepts
// are the bytes the returned tree marshals to.
func UnmarshalPlan(data []byte) (*Node, error) {
	n, _, err := parsePlan(data)
	return n, err
}

// parsePlan is UnmarshalPlan that also hands back the analysis it
// validated the tree with.
func parsePlan(data []byte) (*Node, shape, error) {
	if len(data) == 0 || len(data) > maxPlanBytes {
		return nil, shape{}, fmt.Errorf("query: plan of %d bytes", len(data))
	}
	r := planReader{data: data}
	n, err := r.node(0)
	if err != nil {
		return nil, shape{}, err
	}
	if n == nil {
		return nil, shape{}, fmt.Errorf("query: empty plan")
	}
	if r.pos != len(data) {
		return nil, shape{}, fmt.Errorf("query: %d trailing plan bytes", len(data)-r.pos)
	}
	s, err := analyze(n)
	if err != nil {
		return nil, shape{}, err
	}
	return n, s, nil
}
