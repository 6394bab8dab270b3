package aggtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

func sigFor(t testing.TB, scheme sigagg.Scheme, priv sigagg.PrivateKey, tag string) sigagg.Signature {
	t.Helper()
	d := digest.Sum([]byte(tag))
	sig, err := scheme.Sign(priv, d[:])
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// oracle is the brute-force reference: a sorted slice of entries with
// linear aggregation.
type oracle struct {
	scheme  sigagg.Scheme
	entries []Entry
}

func (o *oracle) upsert(e Entry) {
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Key >= e.Key })
	if i < len(o.entries) && o.entries[i].Key == e.Key {
		o.entries[i] = e
		return
	}
	o.entries = append(o.entries, Entry{})
	copy(o.entries[i+1:], o.entries[i:])
	o.entries[i] = e
}

func (o *oracle) delete(key int64) bool {
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Key >= key })
	if i >= len(o.entries) || o.entries[i].Key != key {
		return false
	}
	o.entries = append(o.entries[:i], o.entries[i+1:]...)
	return true
}

// span is the oracle's entries with lo <= key <= hi (lo <= hi).
func (o *oracle) span(lo, hi int64) []Entry {
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Key >= lo })
	j := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Key > hi })
	return o.entries[i:j]
}

// around returns the oracle's entry under key and its neighbours below
// and above, each nil when absent.
func (o *oracle) around(key int64) (pred, at, succ *Entry) {
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].Key >= key })
	if i > 0 {
		pred = &o.entries[i-1]
	}
	if i < len(o.entries) && o.entries[i].Key == key {
		at = &o.entries[i]
		i++
	}
	if i < len(o.entries) {
		succ = &o.entries[i]
	}
	return pred, at, succ
}

// sameEntry reports whether a tree read (got, ok) returned exactly the
// oracle's entry, payload identity included.
func sameEntry(got Entry, ok bool, want *Entry) bool {
	if want == nil {
		return !ok
	}
	return ok && got.Key == want.Key && got.RID == want.RID &&
		string(got.Sig) == string(want.Sig) && got.Payload == want.Payload
}

func (o *oracle) aggRange(t *testing.T, lo, hi int64) sigagg.Signature {
	t.Helper()
	var sigs []sigagg.Signature
	for _, e := range o.entries {
		if e.Key >= lo && e.Key <= hi {
			sigs = append(sigs, e.Sig)
		}
	}
	if len(sigs) == 0 {
		return nil
	}
	agg, err := o.scheme.AggregateInto(nil, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// validate checks the BST ordering, the size fields, the weight-balance
// invariant and every subtree sum — encoded — against the aggregate of
// the subtree's leaf signatures.
func (tr *Tree) validate(t *testing.T, scheme sigagg.Scheme) {
	t.Helper()
	var prev *int64
	var walk func(n *node) []sigagg.Signature
	walk = func(n *node) []sigagg.Signature {
		if n == nil {
			return nil
		}
		ls := walk(n.left)
		if prev != nil && n.Key <= *prev {
			t.Fatalf("order violation: %d after %d", n.Key, *prev)
		}
		k := n.Key
		prev = &k
		rs := walk(n.right)
		if n.size != len(ls)+len(rs)+1 {
			t.Fatalf("size mismatch at key %d: %d != %d", n.Key, n.size, len(ls)+len(rs)+1)
		}
		if len(ls)+len(rs) >= 2 {
			lw, rw := len(ls)+1, len(rs)+1
			if lw > wDelta*rw || rw > wDelta*lw {
				t.Fatalf("weight invariant violated at key %d: %d vs %d", n.Key, lw, rw)
			}
		}
		sigs := append(append(ls, n.Sig), rs...)
		want, err := scheme.AggregateInto(nil, sigs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.sum.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("subtree sum mismatch at key %d", n.Key)
		}
		return sigs
	}
	walk(tr.root)
}

func TestRandomInterleavedOpsVsOracle(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	rng := rand.New(rand.NewSource(42))
	tr := New(scheme)
	o := &oracle{scheme: scheme}

	const steps = 4000
	const keySpace = 600
	for i := 0; i < steps; i++ {
		key := rng.Int63n(keySpace)
		switch rng.Intn(10) {
		case 0, 1: // delete
			wantDel := o.delete(key)
			gotDel, _ := tr.Delete(key)
			if gotDel != wantDel {
				t.Fatalf("step %d: Delete(%d) = %v, oracle %v", i, key, gotDel, wantDel)
			}
		default: // upsert, with a payload the tree must hand back as is
			payload := new(int)
			*payload = i
			e := Entry{Key: key, RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("s-%d", i)), Payload: payload}
			o.upsert(e)
			if _, _, err := tr.Upsert(e); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != len(o.entries) {
			t.Fatalf("step %d: Len = %d, oracle %d", i, tr.Len(), len(o.entries))
		}
		if i%250 == 0 {
			tr.validate(t, scheme)
		}
		// Random range check against linear aggregation.
		lo := rng.Int63n(keySpace)
		hi := lo + rng.Int63n(keySpace-lo)
		got, _, err := tr.AggRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := o.aggRange(t, lo, hi)
		if string(got) != string(want) {
			t.Fatalf("step %d: AggRange(%d,%d) mismatch", i, lo, hi)
		}
		// Point and neighbour reads at the op's key and at random probes,
		// the domain's edges included.
		for _, probe := range []int64{key, rng.Int63n(keySpace+2) - 1, rng.Int63n(keySpace)} {
			pred, at, succ := o.around(probe)
			if e, ok := tr.Get(probe); !sameEntry(e, ok, at) {
				t.Fatalf("step %d: Get(%d) = %+v, %v; oracle %+v", i, probe, e, ok, at)
			}
			if e, ok := tr.Predecessor(probe); !sameEntry(e, ok, pred) {
				t.Fatalf("step %d: Predecessor(%d) = %+v, %v; oracle %+v", i, probe, e, ok, pred)
			}
			if e, ok := tr.Successor(probe); !sameEntry(e, ok, succ) {
				t.Fatalf("step %d: Successor(%d) = %+v, %v; oracle %+v", i, probe, e, ok, succ)
			}
		}
		// The bounded walk visits exactly the range, in order, and stops
		// where told to.
		span := o.span(lo, hi)
		var walked []Entry
		tr.Ascend(lo, hi, func(e Entry) bool { walked = append(walked, e); return true })
		if len(walked) != len(span) {
			t.Fatalf("step %d: Ascend(%d,%d) visited %d entries, oracle %d", i, lo, hi, len(walked), len(span))
		}
		for j := range span {
			if !sameEntry(walked[j], true, &span[j]) {
				t.Fatalf("step %d: Ascend(%d,%d) entry %d = %+v, oracle %+v", i, lo, hi, j, walked[j], span[j])
			}
		}
		if len(span) > 0 {
			stop, visits := 1+rng.Intn(len(span)), 0
			tr.Ascend(lo, hi, func(Entry) bool { visits++; return visits < stop })
			if visits != stop {
				t.Fatalf("step %d: Ascend(%d,%d) told to stop after %d visited %d", i, lo, hi, stop, visits)
			}
		}
	}
	tr.validate(t, scheme)
}

func TestAggRangeOpsLogarithmic(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	const n = 1 << 14
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i) * 3, RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("l-%d", i))}
	}
	tr, _, err := BulkLoad(scheme, entries)
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log2(n)
	if h := tr.Height(); float64(h) > 2.5*logN {
		t.Fatalf("height %d too large for n=%d", h, n)
	}
	rng := rand.New(rand.NewSource(7))
	maxOps := 0
	for i := 0; i < 500; i++ {
		a := rng.Int63n(3 * n)
		b := rng.Int63n(3 * n)
		if a > b {
			a, b = b, a
		}
		_, ops, err := tr.AggRange(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ops > maxOps {
			maxOps = ops
		}
	}
	// Two adds per level on each flank.
	if bound := int(4*logN) + 4; maxOps > bound {
		t.Fatalf("max AggRange ops %d exceeds O(log n) bound %d", maxOps, bound)
	}
}

func TestMaintenanceOpsLogarithmic(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	const n = 1 << 12
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("m-%d", i))}
	}
	tr, _, err := BulkLoad(scheme, entries)
	if err != nil {
		t.Fatal(err)
	}
	bound := int(8 * math.Log2(n)) // ≤2 pull ops/level plus rotation repulls
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		key := rng.Int63n(2 * n)
		_, ops, err := tr.Upsert(Entry{Key: key, RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("u-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if ops > bound {
			t.Fatalf("upsert ops %d exceeds bound %d", ops, bound)
		}
		if _, ops = tr.Delete(rng.Int63n(2 * n)); ops > bound {
			t.Fatalf("delete ops %d exceeds bound %d", ops, bound)
		}
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	const n = 1000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i) * 2, RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("b-%d", i))}
	}
	bulk, bulkOps, err := BulkLoad(scheme, entries)
	if err != nil {
		t.Fatal(err)
	}
	if bulkOps > 2*n {
		t.Fatalf("bulk load spent %d ops, want Θ(n)", bulkOps)
	}
	incr := New(scheme)
	for _, e := range entries {
		if _, _, err := incr.Upsert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int64{{0, 2 * n}, {3, 77}, {500, 501}, {1999, 1999}} {
		a, _, _ := bulk.AggRange(r[0], r[1])
		b, _, _ := incr.AggRange(r[0], r[1])
		if string(a) != string(b) {
			t.Fatalf("bulk and incremental aggregates differ on [%d,%d]", r[0], r[1])
		}
	}
	bulk.validate(t, scheme)
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	scheme := xortest.New()
	if _, _, err := BulkLoad(scheme, []Entry{{Key: 5}, {Key: 5}}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, _, err := BulkLoad(scheme, []Entry{{Key: 5}, {Key: 3}}); err == nil {
		t.Fatal("unsorted keys accepted")
	}
}

func TestAggRangeVerifiesUnderBAS(t *testing.T) {
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	tr := New(scheme)
	digests := make([][]byte, n)
	for i := 0; i < n; i++ {
		d := digest.Sum([]byte(fmt.Sprintf("bas-%d", i)))
		digests[i] = d[:]
		sig, err := scheme.Sign(priv, d[:])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Upsert(Entry{Key: int64(i), RID: uint64(i), Sig: sig}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int64{{0, 63}, {5, 37}, {10, 10}, {62, 63}} {
		agg, _, err := tr.AggRange(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := scheme.AggregateVerify(pub, digests[r[0]:r[1]+1], agg); err != nil {
			t.Fatalf("range [%d,%d]: %v", r[0], r[1], err)
		}
	}
}

func TestAggRangeEmptyAndErrors(t *testing.T) {
	scheme := xortest.New()
	tr := New(scheme)
	if sig, ops, err := tr.AggRange(0, 100); err != nil || sig != nil || ops != 0 {
		t.Fatalf("empty tree: sig=%v ops=%d err=%v", sig, ops, err)
	}
	if _, _, err := tr.AggRange(5, 4); err == nil {
		t.Fatal("inverted range accepted")
	}
	priv, _, _ := scheme.KeyGen(nil)
	tr.Upsert(Entry{Key: 10, Sig: sigFor(t, scheme, priv, "x")})
	if sig, _, err := tr.AggRange(11, 20); err != nil || sig != nil {
		t.Fatalf("empty span: sig=%v err=%v", sig, err)
	}
}

func TestGetAndScan(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	tr := New(scheme)
	keys := []int64{5, 1, 9, 3, 7}
	for i, k := range keys {
		tr.Upsert(Entry{Key: k, RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("g-%d", k))})
	}
	if _, ok := tr.Get(4); ok {
		t.Fatal("absent key found")
	}
	e, ok := tr.Get(7)
	if !ok || e.RID != 4 {
		t.Fatalf("Get(7) = %+v, %v", e, ok)
	}
	var got []int64
	tr.Scan(func(e Entry) bool {
		got = append(got, e.Key)
		return true
	})
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.Scan(func(Entry) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("scan did not stop early: %d", count)
	}
}
