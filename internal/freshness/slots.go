package freshness

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxSlots bounds a summary's length. Slots are rids, which the owner
// keeps at or below math.MaxInt32, so every slot is an int everywhere.
const maxSlots = 1 << 31

// appendSlots appends a period's summary body: its length, the number of
// marked slots, then the slots, ascending, each as its distance from the
// previous one (the first from 0) — all uvarints. A sparse period costs
// 1–3 bytes per marked slot, within the 2–3× of the update count §3.1
// cites for sparse-bitstring compression, whatever the relation's size.
func appendSlots(buf []byte, length uint64, slots []int) []byte {
	buf = binary.AppendUvarint(buf, length)
	buf = binary.AppendUvarint(buf, uint64(len(slots)))
	prev := 0
	for _, slot := range slots {
		buf = binary.AppendUvarint(buf, uint64(slot-prev))
		prev = slot
	}
	return buf
}

// decodeSlots parses what appendSlots wrote, and nothing else: every
// uvarint minimal, the length at most maxSlots, the slots strictly
// ascending and below it, no trailing bytes. So anything it accepts
// re-encodes to the same bytes. It allocates for the count only once
// the bytes present can hold it (every uvarint is at least one byte).
func decodeSlots(data []byte) (length uint64, slots []int, err error) {
	if length, data, err = uvarint(data); err != nil {
		return 0, nil, fmt.Errorf("slots: length: %w", err)
	}
	if length > maxSlots {
		return 0, nil, fmt.Errorf("slots: length %d past %d", length, uint64(maxSlots))
	}
	count, data, err := uvarint(data)
	if err != nil {
		return 0, nil, fmt.Errorf("slots: count: %w", err)
	}
	if count > uint64(len(data)) {
		return 0, nil, fmt.Errorf("slots: %d slots in %d bytes", count, len(data))
	}
	slots = make([]int, 0, count)
	var slot uint64
	for i := range count {
		var delta uint64
		if delta, data, err = uvarint(data); err != nil {
			return 0, nil, fmt.Errorf("slots: slot %d: %w", i, err)
		}
		if i > 0 && delta == 0 {
			return 0, nil, fmt.Errorf("slots: slot %d repeated", slot)
		}
		if delta >= length-slot {
			return 0, nil, fmt.Errorf("slots: slot past length %d", length)
		}
		slot += delta
		slots = append(slots, int(slot))
	}
	if len(data) != 0 {
		return 0, nil, fmt.Errorf("slots: %d trailing bytes", len(data))
	}
	return length, slots, nil
}

// uvarint reads one minimal uvarint off the front of data.
func uvarint(data []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, errors.New("truncated or overflowing uvarint")
	}
	if k > 1 && data[k-1] == 0 {
		return 0, nil, errors.New("overlong uvarint")
	}
	return v, data[k:], nil
}
