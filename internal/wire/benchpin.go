package wire

import (
	"fmt"

	"authdb/internal/core"
)

// This file holds the retired answer codec: a leaf composite held as a
// core.Answer — the in-process form of a range answer — rather than a
// Composite, under core.DefaultRelation with exactly one summary tail.
// It adds nothing to the format; benchmark/layers.go times encode and
// decode through it, and nothing else calls it.

// AppendAnswer appends ans as a leaf composite — AppendAnswerCore, then
// its summaries as the one tail — to buf and returns the extended
// buffer. On error nothing has been appended and the caller still owns
// buf.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func AppendAnswer(buf []byte, ans *core.Answer) ([]byte, error) {
	out, err := AppendAnswerCore(buf, ans)
	if err != nil {
		return nil, err
	}
	return AppendRelTails(out, []RelTail{{Rel: core.DefaultRelation, Summaries: ans.Summaries}}), nil
}

// AppendAnswerCore appends the core of the leaf composite whose scan is
// ans.Chain (AppendCompositeCore).
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func AppendAnswerCore(buf []byte, ans *core.Answer) ([]byte, error) {
	if ans == nil {
		return nil, fmt.Errorf("wire: nil answer")
	}
	return AppendCompositeCore(buf, &Composite{Outer: ans.Chain})
}

// DecodeAnswer parses what AppendAnswer wrote (DecodeComposite, with its
// custody rules). A composite with operator sections, or whose tails are
// not the one of core.DefaultRelation, is refused.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
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
