package client

import (
	"time"

	"authdb/internal/query"
	"authdb/internal/wire"
)

// SetSleep replaces the backoff sleeper so tests observe and skip real
// delays.
func (c *Client) SetSleep(fn func(time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleep = fn
}

// FetchPlan and VerifyComposite expose QueryPlan's two halves, so a
// benchmark can time verification of one delivered composite answer
// without the round trip.
func (c *Client) FetchPlan(spec *query.Spec) (*wire.Composite, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	plan, err := query.Plan(spec, true)
	if err != nil {
		return nil, err
	}
	return c.fetchPlan(plan.Marshal(), spec)
}

func (c *Client) VerifyComposite(spec *query.Spec, comp *wire.Composite) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verifyComposite(spec, comp, c.rels[spec.Rel], c.rels[spec.Join.Rel])
}
