package client

import (
	"fmt"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// This file holds names benchmark/ compiles against and nothing else
// calls. Each is a thin wrapper over the one path: a range is the leaf
// plan on core.DefaultRelation, fetched by fetchRetry and checked by
// verify, handed back as the core.Answer the benchmark holds.

// leafSpecs is the plan each range selection is.
func leafSpecs(ranges []core.Range) []*query.Spec {
	specs := make([]query.Spec, len(ranges))
	ptrs := make([]*query.Spec, len(ranges))
	for i, r := range ranges {
		specs[i] = query.Spec{Rel: core.DefaultRelation, Lo: r.Lo, Hi: r.Hi}
		ptrs[i] = &specs[i]
	}
	return ptrs
}

// asAnswers hands each leaf composite back as a core.Answer: its scan,
// and the default relation's tail.
func asAnswers(comps []*wire.Composite) []*core.Answer {
	answers := make([]core.Answer, len(comps))
	ptrs := make([]*core.Answer, len(comps))
	for i, comp := range comps {
		answers[i].Chain = comp.Outer
		for _, tail := range comp.Tails {
			if tail.Rel == core.DefaultRelation {
				answers[i].Summaries = tail.Summaries
			}
		}
		ptrs[i] = &answers[i]
	}
	return ptrs
}

// asComposites is asAnswers backwards.
func asComposites(answers []*core.Answer) ([]*wire.Composite, error) {
	comps := make([]wire.Composite, len(answers))
	tails := make([]wire.RelTail, len(answers))
	ptrs := make([]*wire.Composite, len(answers))
	for i, ans := range answers {
		if ans == nil {
			return nil, fmt.Errorf("%w: no answer %d", ErrComposite, i)
		}
		tails[i] = wire.RelTail{Rel: core.DefaultRelation, Summaries: ans.Summaries}
		comps[i] = wire.Composite{Outer: ans.Chain, Tails: tails[i : i+1 : i+1]}
		ptrs[i] = &comps[i]
	}
	return ptrs, nil
}

// FetchBatch fetches the leaf plans of ranges, unverified.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (c *Client) FetchBatch(ranges []core.Range) ([]*core.Answer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	comps, err := c.fetchRetry(leafSpecs(ranges))
	if err != nil {
		return nil, err
	}
	return asAnswers(comps), nil
}

// Verify checks fetched answers as the leaf plans of ranges and returns
// each one's staleness bound.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (c *Client) Verify(answers []*core.Answer, ranges []core.Range) ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(answers) != len(ranges) {
		return nil, fmt.Errorf("%w: %d answers but %d ranges", ErrConfig, len(answers), len(ranges))
	}
	comps, err := asComposites(answers)
	if err != nil {
		return nil, err
	}
	if err := c.verify(leafSpecs(ranges), comps); err != nil {
		return nil, err
	}
	return staleness(comps), nil
}

// QueryBatch is QueryPlans on the leaf plans of ranges.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (c *Client) QueryBatch(ranges []core.Range) ([]*core.Answer, []int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	comps, err := c.queryPlans(leafSpecs(ranges))
	if err != nil {
		return nil, nil, err
	}
	return asAnswers(comps), staleness(comps), nil
}

// staleness lists the verified composites' staleness bounds.
func staleness(comps []*wire.Composite) []int64 {
	bounds := make([]int64, len(comps))
	for i, comp := range comps {
		bounds[i] = comp.Staleness
	}
	return bounds
}
