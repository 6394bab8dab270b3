package freshness

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestSlotsRoundTrip(t *testing.T) {
	marked := []int{0, 1, 1000, 99999, 1<<20 - 1} // 1M slots, as in the paper
	n, got, err := decodeSlots(appendSlots(nil, 1<<20, marked))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<20 || !slices.Equal(got, marked) {
		t.Fatalf("round trip gave %d slots marking %v, want %d marking %v", n, got, 1<<20, marked)
	}
}

func TestSlotsSparseRatio(t *testing.T) {
	// The paper: the compressed length is 2–3× the number of set bits (in
	// bytes). The delta-uvarint encoding must stay within 3 bytes per
	// marked slot for 1000 spread marks among 1M slots.
	var marked []int
	for i := 0; i < 1000; i++ {
		marked = append(marked, i*1040)
	}
	size := len(appendSlots(nil, 1<<20, marked))
	if size > 3*len(marked) {
		t.Fatalf("encoded size %d > 3 bytes per marked slot", size)
	}
	if size < len(marked)/8 {
		t.Fatalf("suspiciously small encoded size %d", size)
	}
}

func TestSlotsEmptySet(t *testing.T) {
	n, got, err := decodeSlots(appendSlots(nil, 1000, nil))
	if err != nil || n != 1000 || len(got) != 0 {
		t.Fatalf("empty set round trip gave %d slots marking %v (%v)", n, got, err)
	}
}

func TestDecodeSlotsRejectsCorrupt(t *testing.T) {
	data := appendSlots(nil, 100, []int{50})
	for name, in := range map[string][]byte{
		"empty":             nil,
		"truncated":         data[:1],
		"trailing byte":     append(slices.Clip(data), 0xFF),
		"repeated slot":     {10, 2, 3, 0},
		"slot at length":    {10, 1, 10},
		"count past bytes":  {10, 5, 1},
		"overlong length":   {0x8A, 0x00, 0},
		"length past 2^31":  {0x81, 0x80, 0x80, 0x80, 0x08, 0},
		"overflowing delta": {10, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	} {
		if n, got, err := decodeSlots(in); err == nil {
			t.Errorf("%s: % x decoded to %d slots marking %v", name, in, n, got)
		}
	}
}

func TestSlotsQuickRoundTrip(t *testing.T) {
	prop := func(positions []uint16) bool {
		marked := make([]int, len(positions))
		for i, p := range positions {
			marked[i] = int(p)
		}
		slices.Sort(marked)
		marked = slices.Compact(marked)
		n, got, err := decodeSlots(appendSlots(nil, 1<<16, marked))
		return err == nil && n == 1<<16 && slices.Equal(got, marked)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeSlots: the client decodes every certified summary it
// ingests. The decoder must not panic, must allocate no more slots than
// the input has bytes, and must accept only what appendSlots writes.
func FuzzDecodeSlots(f *testing.F) {
	var sparse []int
	for i := 0; i < 500; i++ {
		sparse = append(sparse, i*2000+i%7)
	}
	f.Add(appendSlots(nil, 1000, nil))
	f.Add(appendSlots(nil, 1, []int{0}))
	f.Add(appendSlots(nil, 1_000_000, sparse))
	f.Add([]byte{10, 2, 3, 0})                     // a repeated slot
	f.Add([]byte{0x81, 0x80, 0x80, 0x80, 0x08, 0}) // a length past 2^31
	f.Fuzz(func(t *testing.T, data []byte) {
		n, got, err := decodeSlots(data)
		if err != nil {
			return
		}
		if cap(got) > len(data) {
			t.Fatalf("%d bytes decoded into room for %d slots", len(data), cap(got))
		}
		if again := appendSlots(nil, n, got); !bytes.Equal(again, data) {
			t.Fatalf("% x decoded to %d slots marking %v, which encode as % x", data, n, got, again)
		}
	})
}
