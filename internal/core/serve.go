package core

import (
	"fmt"

	"authdb/internal/anscache"
)

// AnswerCodec materializes the wire encoding of an answer for the
// answer cache. Encode returns the encoded bytes — typically appended
// into a buffer drawn from a pool — and Free (optional) recycles a
// buffer Encode returned once no reader can still see it. The codec is
// injected rather than imported because internal/wire already depends
// on core for the message types; internal/server wires the two
// together.
type AnswerCodec struct {
	Encode func(*Answer) ([]byte, error)
	Free   func([]byte)
}

// servingState bundles the answer cache with its codec so enabling is
// one atomic pointer store.
type servingState struct {
	cache *anscache.Cache
	codec AnswerCodec
}

// ServeSource classifies how a Serve call was answered.
type ServeSource uint8

const (
	// ServedUncached: no answer cache is enabled; the call ran the full
	// query pipeline and returned no wire bytes.
	ServedUncached ServeSource = iota
	// ServedBuilt: cache miss; this call ran the tree walk and encoded
	// the answer (possibly on behalf of coalesced waiters).
	ServedBuilt
	// ServedHit: answered from a resident, epoch-current entry — zero
	// aggregation operations, zero encoding work.
	ServedHit
	// ServedCoalesced: joined another call's in-flight build and shared
	// its result.
	ServedCoalesced
)

// String names the source.
func (s ServeSource) String() string {
	switch s {
	case ServedUncached:
		return "uncached"
	case ServedBuilt:
		return "built"
	case ServedHit:
		return "hit"
	case ServedCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// Served is one answered request. Answer is shared with the cache and
// other readers and must be treated as read-only; Data is the
// pre-encoded wire bytes (nil when no cache is enabled) and is valid
// only until Release. Release must be called exactly once.
type Served struct {
	Answer *Answer
	Data   []byte
	Source ServeSource
	entry  *anscache.Entry
}

// Release drops the caller's hold on the served bytes, returning them
// to their pool once the last reader is done. After Release the caller
// must not touch Data (Answer remains usable: answers are immutable
// once built).
func (s *Served) Release() {
	if s.entry != nil {
		s.entry.Release()
		s.entry = nil
	}
	s.Data = nil
}

// EnableAnswerCache attaches a materialized-answer cache to the server:
// Serve calls are answered from pre-encoded cached entries when their
// epoch stamps are still current, concurrent identical misses coalesce
// into one tree walk, and updates invalidate exactly the ranges whose
// shards they touch (see internal/anscache). codec.Encode must be
// non-nil; wire.AppendAnswer via internal/server is the production
// pairing.
func (qs *QueryServer) EnableAnswerCache(codec AnswerCodec, opts ...anscache.Option) error {
	if codec.Encode == nil {
		return fmt.Errorf("core: answer cache needs an encoder")
	}
	qs.serving.Store(&servingState{cache: anscache.New(opts...), codec: codec})
	return nil
}

// DisableAnswerCache detaches the cache and drops its resident entries;
// in-flight Serve calls drain against the old state.
func (qs *QueryServer) DisableAnswerCache() {
	if st := qs.serving.Swap(nil); st != nil {
		st.cache.Clear()
	}
}

// Serve answers the range selection [lo, hi] through the serving layer:
// from the answer cache when a current entry exists, by coalescing onto
// an identical in-flight build, or by running the query pipeline and
// (when a cache is enabled) publishing the materialized result. The
// caller must Release the result exactly once.
func (qs *QueryServer) Serve(lo, hi int64) (Served, error) {
	st := qs.serving.Load()
	if st == nil {
		ans, err := qs.Query(lo, hi)
		if err != nil {
			return Served{}, err
		}
		return Served{Answer: ans, Source: ServedUncached}, nil
	}
	key := anscache.Key{Lo: lo, Hi: hi}
	e, outcome, err := st.cache.Do(key, func() (*anscache.Entry, error) {
		ans, stamp, err := qs.queryStamped(lo, hi, true, nil)
		if err != nil {
			return nil, err
		}
		data, err := st.codec.Encode(ans)
		if err != nil {
			return nil, err
		}
		return &anscache.Entry{
			Key:   key,
			Value: ans,
			Wire:  data,
			Stamp: stamp,
			Free:  st.codec.Free,
		}, nil
	})
	if err != nil {
		return Served{}, err
	}
	src := ServedBuilt
	switch outcome {
	case anscache.Hit:
		src = ServedHit
	case anscache.Coalesced:
		src = ServedCoalesced
	}
	return Served{Answer: e.Value.(*Answer), Data: e.Wire, Source: src, entry: e}, nil
}

// ServingStats is the serving layer's counter snapshot: the answer
// cache's hit/coalesce/invalidation accounting.
type ServingStats struct {
	Answers anscache.Stats
}

// ServingStats snapshots the answer cache (zero when it is not
// enabled).
func (qs *QueryServer) ServingStats() ServingStats {
	var st ServingStats
	if s := qs.serving.Load(); s != nil {
		st.Answers = s.cache.Stats()
	}
	return st
}
