package server

import "authdb/internal/core"

// EnableCache does nothing: a relation has no answer cache of its own;
// the query.Engine a NetServer answers through caches every request.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func EnableCache(qs *core.QueryServer, maxBytes int64) error { return nil }
