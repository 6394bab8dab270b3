// Package anscache is a fixture stub of the real answer cache: just the
// stamp that reads counters. The lockepoch analyzer matches
// (*anscache.Stamp).Read by package-path base, type and method name.
package anscache

import "sync/atomic"

type Stamp struct{ reads []*atomic.Uint64 }

func (s *Stamp) Read(c *atomic.Uint64) { s.reads = append(s.reads, c) }
