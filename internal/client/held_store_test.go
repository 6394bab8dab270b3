package client

import (
	"fmt"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/wire"
)

// answerOf is a verified-looking leaf answer of n records for the plan
// named p; the store never looks inside it beyond its size.
func answerOf(p string, n int) (plan []byte, comp *wire.Composite) {
	ca := &chain.Answer{Lo: 1, Hi: 2, Left: chain.MinRef, Right: chain.MaxRef, Agg: []byte("agg")}
	for i := 0; i < n; i++ {
		ca.Records = append(ca.Records, &chain.Record{RID: uint64(i), Key: int64(i), Attrs: [][]byte{make([]byte, 100)}})
	}
	return []byte(p), &wire.Composite{Outer: ca}
}

// TestHeldStorePolicy: the store's admission and eviction rules. An
// answer is held from its plan's second sighting; a newer answer to a
// held plan replaces it; a full store evicts only answers of plans asked
// for less often than the newcomer's; and aging drops answers nobody
// asks for any more.
func TestHeldStorePolicy(t *testing.T) {
	plan, comp := answerOf("a", 10)
	one := func() int64 {
		h := newHeldStore(1 << 20)
		h.sight(plan)
		h.offer(plan, comp)
		h.sight(plan)
		h.offer(plan, comp)
		return h.m["a"].size
	}()
	h := newHeldStore(3 * one) // room for three answers of this size
	sightAndOffer := func(p string, times int) {
		pb, c := answerOf(p, 10)
		for i := 0; i < times; i++ {
			if h.sight(pb) == nil {
				h.offer(pb, c)
			}
		}
	}
	sightAndOffer("a", 1)
	if len(h.m) != 0 {
		t.Fatal("held on the first sighting")
	}
	sightAndOffer("a", 1)
	if h.m["a"] == nil || h.bytes != one {
		t.Fatalf("not held on the second sighting: %d bytes", h.bytes)
	}
	// A newer answer to the plan takes the old one's place.
	old := h.m["a"]
	pb, newer := answerOf("a", 10)
	h.offer(pb, newer)
	if h.m["a"] == old || h.m["a"].chain != newer.Outer || h.bytes != one {
		t.Fatal("the newer answer did not replace the held one")
	}
	// Fill the store with hot plans; a plan sighted twice does not evict
	// them, one sighted more often than the coldest of them does.
	sightAndOffer("b", 5)
	sightAndOffer("c", 5)
	sightAndOffer("a", 5)
	sightAndOffer("cold", 2)
	if h.m["cold"] != nil || len(h.m) != 3 {
		t.Fatalf("a twice-asked plan evicted a hotter one: %d held", len(h.m))
	}
	sightAndOffer("hot", 9)
	if h.m["hot"] == nil || h.m["b"] != nil || h.bytes > h.budget {
		t.Fatalf("a hotter plan did not take the least recently used place (b): %v held, %d of %d bytes", keys(&h), h.bytes, h.budget)
	}
	// Nobody asks for anything: a few agings later the store is empty.
	for i := 0; i < 5; i++ {
		h.age()
	}
	if len(h.m) != 0 || h.bytes != 0 || h.head != nil || h.tail != nil {
		t.Fatalf("aging left %v held (%d bytes)", keys(&h), h.bytes)
	}
	// An answer larger than the whole budget is never held.
	big, bigComp := answerOf("big", 40)
	h.sight(big)
	h.sight(big)
	h.offer(big, bigComp)
	if h.m["big"] != nil {
		t.Fatal("held an answer larger than the budget")
	}
}

func keys(h *heldStore) []string {
	var ks []string
	for a := h.head; a != nil; a = a.next {
		ks = append(ks, fmt.Sprintf("%s(%d)", a.key, h.count(a.sum)))
	}
	return ks
}
