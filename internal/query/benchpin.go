package query

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
