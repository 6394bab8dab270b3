// Package server is the serving layer's front end: the networked
// server (net.go), which answers every request through a query.Engine,
// its admission control (admission.go) and metrics endpoint (stats.go),
// and the pairing of the QueryServer's answer cache with the wire codec
// (internal/wire imports core for the message types, so core cannot
// call it directly). The chaos and fleet soaks
// that gate its safety are tests of this package.
package server

import (
	"authdb/internal/anscache"
	"authdb/internal/core"
	"authdb/internal/wire"
)

// Codec returns the production AnswerCodec: answers encode once into a
// pooled wire buffer that returns to the pool when the build's last
// reader releases it (an answer the cache admits stays resident as an
// exactly sized copy). On an encoding error the pooled buffer is
// returned immediately — Encode owns the buffer until it succeeds, so
// no error path can leak it or double-put it (callers Free exactly the
// successful results).
//
// The codec encodes the core of the leaf composite (`V 'C' body
// flags=0`, wire.AppendCompositeCore of a composite with no operator
// sections): the bytes depend on nothing but the answered records, so
// cached entries survive ρ-period closes. The plan engine appends each
// client's summary tails (wire.AppendRelTails) when it answers a bare
// scan from this cache; core bytes plus tail bytes form exactly the 'C'
// message clients decode.
func Codec() core.AnswerCodec {
	return core.AnswerCodec{
		Encode: func(a *core.Answer) ([]byte, error) {
			buf := wire.GetBuffer()
			out, err := wire.AppendCompositeCore(buf, &wire.Composite{Outer: a.Chain})
			if err != nil {
				wire.PutBuffer(buf)
				return nil, err
			}
			return out, nil
		},
		Free: wire.PutBuffer,
	}
}

// EnableCache attaches a wire-codec answer cache of maxBytes to qs.
func EnableCache(qs *core.QueryServer, maxBytes int64) error {
	return qs.EnableAnswerCache(Codec(), anscache.WithMaxBytes(maxBytes))
}
