package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestKeyOrderMatchesSortedSlice drives a keyOrder through ascending
// appends, random inserts, updates and deletes — enough to split blocks
// in the middle and at the end and to empty some — and checks every
// answer against a sorted slice of the same keys.
func TestKeyOrderMatchesSortedSlice(t *testing.T) {
	var o keyOrder
	var keys []int64 // the oracle, sorted
	check := func(step int) {
		t.Helper()
		if o.Len() != len(keys) {
			t.Fatalf("step %d: Len %d, oracle %d", step, o.Len(), len(keys))
		}
		var got []int64
		o.scan(func(rec *Record) bool { got = append(got, rec.Key); return true })
		if !slices.Equal(got, keys) {
			t.Fatalf("step %d: scan differs from the oracle", step)
		}
		for b, blk := range o.blocks {
			if len(blk) == 0 || len(blk) > blockCap || o.firsts[b] != blk[0].Key {
				t.Fatalf("step %d: block %d holds %d records, first key %d", step, b, len(blk), o.firsts[b])
			}
		}
	}
	probe := func(step int, key int64) {
		t.Helper()
		i, found := slices.BinarySearch(keys, key)
		if rec := o.get(key); (rec != nil) != found || rec != nil && rec.Key != key {
			t.Fatalf("step %d: get(%d) = %v, oracle holds it: %v", step, key, rec, found)
		}
		wantPred, wantSucc := int64(-1), int64(-1)
		if i > 0 {
			wantPred = keys[i-1]
		}
		if found {
			i++
		}
		if i < len(keys) {
			wantSucc = keys[i]
		}
		keyOf := func(rec *Record) int64 {
			if rec == nil {
				return -1
			}
			return rec.Key
		}
		pred, succ := o.around(key)
		if p, s := keyOf(pred), keyOf(succ); p != wantPred || s != wantSucc {
			t.Fatalf("step %d: neighbours of %d are %d, %d; oracle %d, %d", step, key, p, s, wantPred, wantSucc)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for k := int64(0); k < 3*blockCap; k++ { // a key-ascending load fills whole blocks
		o.put(&Record{Key: 2 * k})
		keys = append(keys, 2*k)
	}
	check(0)
	if len(o.blocks) != 3 {
		t.Fatalf("ascending load of %d keys left %d blocks, want 3", 3*blockCap, len(o.blocks))
	}
	const space = 8 * blockCap
	for step := 1; step <= 6000; step++ {
		key := rng.Int63n(space) - 2
		i, found := slices.BinarySearch(keys, key)
		switch {
		case step > 4000 || rng.Intn(3) == 0: // deletes dominate at the end, emptying blocks
			o.delete(key)
			if found {
				keys = slices.Delete(keys, i, i+1)
			}
		default:
			rec := &Record{Key: key, TS: int64(step)}
			o.put(rec)
			if !found {
				keys = slices.Insert(keys, i, key)
			} else if o.get(key) != rec {
				t.Fatalf("step %d: put did not replace key %d's record", step, key)
			}
		}
		probe(step, key)
		probe(step, rng.Int63n(space)-2)
		if step%500 == 0 {
			check(step)
		}
	}
	for _, k := range slices.Clone(keys) {
		o.delete(k)
	}
	keys = nil
	check(-1)
	probe(-1, 5)
}
