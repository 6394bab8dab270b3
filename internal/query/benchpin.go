package query

import (
	"authdb/internal/core"
	"authdb/internal/join"
)

// This file holds names benchmark/ compiles against and nothing else
// calls. Each is a thin wrapper over the one path.

// Node is the plan type Plan returns: the spec itself.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type Node = Spec

// Plan validates spec and returns it. pushdown is ignored: the selection
// is always pushed into the outer scan.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func Plan(spec *Spec, pushdown bool) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// SetFilter applies a re-certified filter to the named relation's server
// as the dissemination message the owner's pipeline carries it in:
// QueryServer.Apply(&core.UpdateMsg{Filter: fc}).
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (e *Engine) SetFilter(name string, fc *join.FilterCert) error {
	rv, err := e.rel(name)
	if err != nil {
		return err
	}
	return rv.qs.Apply(&core.UpdateMsg{Filter: fc})
}
