package client

import (
	"hash/maphash"
	"unsafe"

	"authdb/internal/chain"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// The held store: the verified answers of a session's repeated bare
// scans, so a repeat costs its summary tail, not its answer. A held plan
// is requested with its answer's wire.CoreDigest; a server whose current
// answer has that digest replies "unchanged" with the tails alone, and
// the session re-checks the held records against those tails (verify).
// DESIGN.md, "Held answers", has why that is the bound a fresh fetch of
// the same records would get.

// heldBudget bounds the bytes a session holds. zipf over the benchmark's
// 512 hot ranges puts 74 % of requests on the top 64 (about 2 MiB of
// 50-row answers, decoded records included), 80 % on the top 96 and 83 %
// on the top 128; see CHANGES.md for the budgets tried.
const heldBudget = 2 << 20

// sightings is the size of the table that counts how often recent plans
// were asked for. An answer is held from its plan's second sighting on,
// so scans that never repeat hold nothing; and a full store makes room
// only for a plan asked for more often than the least recently used one
// it would evict, so a cold plan's two sightings do not push out a hot
// one. Every agingPeriod sightings the counts halve, and an answer whose
// plan's count reaches 0 — not asked for again since it was admitted,
// two agings ago — is dropped: cold_scan's ranges repeat by chance, about
// one request in a thousand, and without it those answers stay held.
const (
	sightings   = 1024
	agingPeriod = 4 * sightings
)

// heldOverhead is what an answer costs beyond its core bytes: the entry,
// its key, and per record the decoded struct and its pointer.
const (
	heldOverhead  = int64(unsafe.Sizeof(heldAnswer{})) + 64
	heldPerRecord = int64(unsafe.Sizeof(chain.Record{})) + 8
	planScratch   = 128 // plan marshalling scratch: a plan is some tens of bytes
)

// heldAnswer is one verified leaf answer. Its chain aliases the frame it
// was decoded from, which it keeps alive; nothing writes to either.
type heldAnswer struct {
	key        string // the plan's canonical bytes
	sum        uint64 // the key's hash, its sighting-table slot
	chain      *chain.Answer
	digest     uint64 // wire.CoreDigest of the answer's core
	size       int64
	prev, next *heldAnswer
}

// heldStore is a session's byte-budgeted store of held answers, guarded
// by the client's mutex.
type heldStore struct {
	budget, bytes int64
	m             map[string]*heldAnswer
	head, tail    *heldAnswer // most and least recently used
	seed          maphash.Seed
	seen          [sightings]sighting
	ticks         int // sightings since the counts last halved
}

// sighting counts the requests for the plan whose hash is sum.
type sighting struct {
	sum uint64
	n   uint32
}

func newHeldStore(budget int64) heldStore {
	return heldStore{budget: budget, m: make(map[string]*heldAnswer), seed: maphash.MakeSeed()}
}

// bare reports whether spec is a bare scan, the only plan the store
// holds answers for.
func bare(spec *query.Spec) bool { return spec.Attrs == nil && spec.Join == nil }

// sight counts a request for the plan and returns the answer held for
// it, most recently used from now on, or nil.
func (h *heldStore) sight(plan []byte) *heldAnswer {
	if h.budget <= 0 {
		return nil
	}
	// Two plans that share a slot contend for it: the one asked for more
	// often keeps it, and the other reads as never sighted.
	sum := maphash.Bytes(h.seed, plan)
	switch s := &h.seen[sum%sightings]; {
	case s.sum == sum:
		s.n++
	case s.n > 1:
		s.n--
	default:
		*s = sighting{sum: sum, n: 1}
	}
	if h.ticks++; h.ticks == agingPeriod {
		h.age()
	}
	a := h.m[string(plan)]
	if a != nil && a != h.head {
		h.unlink(a)
		h.pushFront(a)
	}
	return a
}

// age halves every count and drops the answers whose plans' counts
// reach 0.
func (h *heldStore) age() {
	h.ticks = 0
	for i := range h.seen {
		h.seen[i].n /= 2
	}
	for a := h.tail; a != nil; {
		prev := a.prev
		if h.count(a.sum) == 0 {
			h.drop(a)
		}
		a = prev
	}
}

// count is how often the plan with hash sum was sighted lately.
func (h *heldStore) count(sum uint64) uint32 {
	if s := h.seen[sum%sightings]; s.sum == sum {
		return s.n
	}
	return 0
}

// drop forgets a held answer; dropping one already gone does nothing.
func (h *heldStore) drop(a *heldAnswer) {
	if h.m[a.key] != a {
		return
	}
	delete(h.m, a.key)
	h.unlink(a)
	h.bytes -= a.size
}

// offer holds the plan's verified answer comp if the plan was sighted
// twice or more, making room by evicting least recently used answers of
// plans sighted less often. A newer answer to a plan already held
// replaces the held one: the server had a different answer, and would not
// confirm the old one again. An answer larger than the whole budget is
// not held.
func (h *heldStore) offer(plan []byte, comp *wire.Composite) {
	if h.budget <= 0 {
		return
	}
	sum := maphash.Bytes(h.seed, plan)
	if old := h.m[string(plan)]; old != nil {
		if old.chain == comp.Outer {
			return
		}
		h.drop(old)
	} else if h.count(sum) < 2 {
		return
	}
	core, err := wire.AppendCompositeCore(wire.GetBuffer(), &wire.Composite{Outer: comp.Outer})
	if err != nil {
		wire.PutBuffer(core)
		return
	}
	digest, n := wire.CoreDigest(core), len(core)
	wire.PutBuffer(core)
	a := &heldAnswer{key: string(plan), sum: sum, chain: comp.Outer, digest: digest,
		size: int64(n+len(plan)) + heldOverhead + heldPerRecord*int64(len(comp.Outer.Records))}
	if a.size > h.budget {
		return
	}
	// The victims are chosen before any is dropped: either the newcomer
	// fits, or the store is left as it was.
	free, want := h.budget-h.bytes, h.count(sum)
	v := h.tail
	for ; free < a.size && v != nil; v = v.prev {
		if h.count(v.sum) >= want {
			return
		}
		free += v.size
	}
	for h.bytes+a.size > h.budget {
		h.drop(h.tail)
	}
	h.m[a.key] = a
	h.pushFront(a)
	h.bytes += a.size
}

func (h *heldStore) pushFront(a *heldAnswer) {
	a.prev, a.next = nil, h.head
	if h.head != nil {
		h.head.prev = a
	}
	h.head = a
	if h.tail == nil {
		h.tail = a
	}
}

func (h *heldStore) unlink(a *heldAnswer) {
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		h.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	} else {
		h.tail = a.prev
	}
	a.prev, a.next = nil, nil
}
