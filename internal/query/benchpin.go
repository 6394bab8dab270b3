package query

import (
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/wire"
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

// Marshal encodes the plan canonically.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (s *Spec) Marshal() []byte {
	return s.AppendTo(make([]byte, 0, 64))
}

// Execute runs the plan.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (e *Engine) Execute(p *Spec) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, _, err := e.exec(p)
	return r, err
}

// ServePlan is Serve, for a request that names no held answer, for
// callers that take the release as a function.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (e *Engine) ServePlan(planBytes []byte, since []wire.RelSince) (body, tails []byte, release func(), err error) {
	sv, err := e.Serve(planBytes, since, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return sv.Body, sv.Tails, sv.Release, nil
}
