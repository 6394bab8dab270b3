package core

import "authdb/internal/anscache"

// This file holds names benchmark/ compiles against and nothing else
// calls. A relation has no answer cache of its own (the plan engine's one
// cache serves every request), so each is a thin wrapper over an uncached
// Query.

// ServeSource classifies how a Serve call was answered.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type ServeSource uint8

// The sources benchmark/ tells apart. Serve reports ServedBuilt only.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
const (
	ServedBuilt ServeSource = iota + 1
	ServedHit
)

// Served is one Serve result.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type Served struct {
	Answer *Answer
	Source ServeSource
}

// Release does nothing: nothing is held.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (s *Served) Release() {}

// Serve is an uncached Query.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) Serve(lo, hi int64) (Served, error) {
	ans, err := qs.Query(lo, hi)
	if err != nil {
		return Served{}, err
	}
	return Served{Answer: ans, Source: ServedBuilt}, nil
}

// ServingStats is the zero cache accounting ServingStats returns.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type ServingStats struct {
	Answers anscache.Stats
}

// ServingStats returns the zero value.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) ServingStats() ServingStats { return ServingStats{} }

// DisableAnswerCache does nothing.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) DisableAnswerCache() {}
