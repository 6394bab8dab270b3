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

// FetchPlan and VerifyComposite expose the two halves of the query path,
// so a benchmark can time verification of one delivered composite answer
// without the round trip.
func (c *Client) FetchPlan(spec *query.Spec) (*wire.Composite, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	comps, err := c.fetchRetry([]*query.Spec{spec})
	if err != nil {
		return nil, err
	}
	return comps[0], nil
}

func (c *Client) VerifyComposite(spec *query.Spec, comp *wire.Composite) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verify([]*query.Spec{spec}, []*wire.Composite{comp})
}

// NewSession builds a session's verification state with no connection
// behind it, and DecodeVerify runs the path one delivered leaf answer
// takes after the socket read — the frame's one decoder, then
// verification — for the allocation budget.
func NewSession(cfg Config) (*Client, error) { return newSession(cfg) }

func (c *Client) DecodeVerify(frame []byte, spec *query.Spec) error {
	comp, err := c.decodeFrame(frame)
	if err != nil {
		return err
	}
	return c.VerifyComposite(spec, comp)
}

// SetHeldBudget empties the held store and bounds it anew: 0 turns it
// off, so every repeat is fetched and verified in full.
func (c *Client) SetHeldBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = newHeldStore(n)
}
