package wire

// A relation's durable state has one encoding, the image:
//
//	| u64 len | 'U' UpdateMsg{Upserts: records, Filter} | u64 len | 'F' summary batch |
//
// The signed records and the certified filter ride the dissemination
// codec — so the §3.4 attribute sideband, the §3.5 filter section, and
// every count bound a hostile 'U' or 'W' record meets, are the image's
// too — and the certified summaries the batch codec. A bootstrap frame is header + LSN + image (repl.go); a snapshot
// file is magic + LSN + TS + image + owner block + CRC (internal/wal).
// Like the dissemination decoder, DecodeImage copies everything it
// returns.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"authdb/internal/core"
	"authdb/internal/freshness"
)

// nested appends what enc appends as one length-prefixed field, in
// place: the prefix is reserved first and filled in afterwards.
func (w *writer) nested(enc func([]byte) []byte) {
	at := len(w.buf)
	w.u64(0)
	w.buf = enc(w.buf)
	binary.BigEndian.PutUint64(w.buf[at:], uint64(len(w.buf)-at-8))
}

// AppendImage appends the image of st.
func AppendImage(buf []byte, st *core.ServerState) []byte {
	w := &writer{buf: buf}
	w.nested(func(b []byte) []byte {
		return AppendUpdateMsg(b, &core.UpdateMsg{Upserts: st.Records, Filter: st.Filter})
	})
	w.nested(func(b []byte) []byte { return AppendSummaries(b, st.Summaries) })
	return w.buf
}

// DecodeImage parses the image at the front of data and returns the
// bytes that follow it.
func DecodeImage(data []byte) (*core.ServerState, []byte, error) {
	r := &reader{buf: data}
	body, err := r.view()
	if err != nil {
		return nil, nil, err
	}
	msg, err := DecodeUpdateMsg(body)
	if err != nil {
		return nil, nil, err
	}
	if len(msg.Deletes) != 0 || msg.Summary != nil {
		return nil, nil, fmt.Errorf("%w: image records carry a delta", ErrCorrupt)
	}
	if body, err = r.view(); err != nil {
		return nil, nil, err
	}
	sums, err := DecodeSummaries(body)
	if err != nil {
		return nil, nil, err
	}
	return &core.ServerState{Records: msg.Upserts, Summaries: sums, Filter: msg.Filter}, data[r.off:], nil
}

// AppendOwnerBlock appends what a snapshot holds of the owner beyond
// the image: the rid allocator and the publisher's mid-period state (st.Pub, which
// DataAggregator.SnapshotMeta always sets). st.Records is not written —
// it is the image's records.
func AppendOwnerBlock(buf []byte, st *core.OwnerState) []byte {
	w := &writer{buf: buf}
	w.u64(st.NextRID)
	w.u64(st.Pub.Seq)
	w.i64(st.Pub.LastTS)
	w.u64(st.Pub.Slots)
	// Slot-ascending, so identical states encode identically.
	slots := make([]int, 0, len(st.Pub.Touched))
	for slot := range st.Pub.Touched {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	w.u64(uint64(len(slots)))
	for _, slot := range slots {
		w.u64(uint64(slot))
		w.u64(uint64(st.Pub.Touched[slot]))
	}
	return w.buf
}

// DecodeOwnerBlock parses an owner block, which must be all of data.
func DecodeOwnerBlock(data []byte) (*core.OwnerState, error) {
	r := &reader{buf: data}
	pub := &freshness.PublisherState{}
	st := &core.OwnerState{Pub: pub}
	var err error
	if st.NextRID, err = r.u64(); err != nil {
		return nil, err
	}
	if pub.Seq, err = r.u64(); err != nil {
		return nil, err
	}
	if pub.LastTS, err = r.i64(); err != nil {
		return nil, err
	}
	if pub.Slots, err = r.u64(); err != nil {
		return nil, err
	}
	n, err := r.count(16)
	if err != nil {
		return nil, err
	}
	pub.Touched = make(map[int]int, n)
	for i := 0; i < n; i++ {
		slot, _ := r.u64() // present, both: count checked the bytes
		touches, _ := r.u64()
		pub.Touched[int(slot)] = int(touches)
	}
	return st, r.done()
}

// count reads an element count and refuses one that the bytes present,
// at size bytes an element, cannot hold — so the elements can then be
// read without a check each.
func (r *reader) count(size int) (int, error) {
	n, err := r.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/size) {
		return 0, fmt.Errorf("%w: count %d in %d bytes", ErrCorrupt, n, r.remaining())
	}
	return int(n), nil
}
