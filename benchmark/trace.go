package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one operation share
// Req (the root span's id); Parent is the span that caused this one.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the run's trace epoch
	EndNS   int64  `json:"end_ns"`
}

// tracer hands out span ids and per-goroutine buffers; spans stay in
// memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span list; it is not shared.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buf returns a new buffer; call it before the goroutines start.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	t.bufs = append(t.bufs, b)
	return b
}

// spanRef identifies an open span; the zero value means "no parent".
type spanRef struct {
	id, req uint64
	idx     int
}

// begin opens a span under parent (zero = a new operation's root).
func (b *spanBuf) begin(parent spanRef, name string) spanRef {
	id := b.t.ids.Add(1)
	req := parent.req
	if parent.id == 0 {
		req = id
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent.id, Req: req, Name: name,
		StartNS: time.Since(b.t.epoch).Nanoseconds()})
	return spanRef{id: id, req: req, idx: len(b.spans) - 1}
}

// end closes the span and returns its duration.
func (b *spanBuf) end(r spanRef) time.Duration {
	sp := &b.spans[r.idx]
	sp.EndNS = time.Since(b.t.epoch).Nanoseconds()
	return time.Duration(sp.EndNS - sp.StartNS)
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// layerTime is one span name's totals: self time is the span's duration
// minus the part its child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name.
func selfTimes(spans []span) []layerTime {
	children := make(map[uint64]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] += time.Duration(sp.EndNS - sp.StartNS)
		}
	}
	byName := map[string]*layerTime{}
	for _, sp := range spans {
		lt := byName[sp.Name]
		if lt == nil {
			lt = &layerTime{Name: sp.Name}
			byName[sp.Name] = lt
		}
		d := time.Duration(sp.EndNS - sp.StartNS)
		lt.Count++
		lt.Total += d
		lt.Self += d - children[sp.ID]
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
