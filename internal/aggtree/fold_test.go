package aggtree

import (
	"fmt"
	"math/rand"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

// countingScheme counts the additions a tree performs through its
// Folder: every operand or sum folded into a non-empty sum. That is the
// paper's aggregation operation, and what the ops results report.
type countingScheme struct {
	sigagg.Scheme
	inner sigagg.Folder
	adds  *int
}

func newCountingScheme(s sigagg.Scheme) *countingScheme {
	return &countingScheme{Scheme: s, inner: sigagg.FolderFor(s), adds: new(int)}
}

func (c *countingScheme) Prepare(sig sigagg.Signature) (sigagg.Operand, error) {
	return c.inner.Prepare(sig)
}

func (c *countingScheme) NewSum() sigagg.Sum {
	return &countingSum{Sum: c.inner.NewSum(), adds: c.adds, empty: true}
}

type countingSum struct {
	sigagg.Sum
	adds  *int
	empty bool
}

func (s *countingSum) added() {
	if !s.empty {
		*s.adds++
	}
	s.empty = false
}

func (s *countingSum) Fold(op sigagg.Operand) { s.added(); s.Sum.Fold(op) }
func (s *countingSum) Merge(o sigagg.Sum)     { s.added(); s.Sum.Merge(o.(*countingSum).Sum) }
func (s *countingSum) Reset()                 { s.empty = true; s.Sum.Reset() }

// TestFoldedRangesMatchScan: after seeded random Upsert / Delete /
// BulkLoad sequences, on a native Folder (bas) and on the adapter
// (xortest), every AggRange equals AggregateInto over the signatures
// Scan yields for the range, and every reported ops count equals the
// additions actually performed.
func TestFoldedRangesMatchScan(t *testing.T) {
	for _, raw := range []sigagg.Scheme{bas.New(0), xortest.New()} {
		t.Run(raw.Name(), func(t *testing.T) {
			scheme := newCountingScheme(raw)
			priv, _, err := raw.KeyGen(rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			sigs := make([]sigagg.Signature, 48)
			for i := range sigs {
				sigs[i] = sigFor(t, raw, priv, fmt.Sprintf("p-%d", i))
			}
			counted := func(fn func() int) {
				t.Helper()
				*scheme.adds = 0
				if ops := fn(); ops != *scheme.adds {
					t.Fatalf("reported %d ops, performed %d additions", ops, *scheme.adds)
				}
			}
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const keySpace = 300
				tr := New(scheme)
				for step := 0; step < 400; step++ {
					key := rng.Int63n(keySpace)
					switch r := rng.Intn(40); {
					case r == 0: // rebuild bottom-up from what the tree holds
						var entries []Entry
						tr.Scan(func(e Entry) bool { entries = append(entries, e); return true })
						counted(func() int {
							var ops int
							if tr, ops, err = BulkLoad(scheme, entries); err != nil {
								t.Fatal(err)
							}
							return ops
						})
					case r < 10:
						counted(func() int { _, ops := tr.Delete(key); return ops })
					default:
						e := Entry{Key: key, RID: uint64(step), Sig: sigs[rng.Intn(len(sigs))]}
						counted(func() int {
							_, ops, err := tr.Upsert(e)
							if err != nil {
								t.Fatal(err)
							}
							return ops
						})
					}
					lo := rng.Int63n(keySpace)
					hi := lo + rng.Int63n(keySpace-lo)
					var inRange []sigagg.Signature
					tr.Scan(func(e Entry) bool {
						if e.Key >= lo && e.Key <= hi {
							inRange = append(inRange, e.Sig)
						}
						return e.Key <= hi
					})
					var got sigagg.Signature
					counted(func() int {
						var ops int
						if got, ops, err = tr.AggRange(lo, hi); err != nil {
							t.Fatal(err)
						}
						return ops
					})
					if len(inRange) == 0 {
						if got != nil {
							t.Fatalf("seed %d step %d: aggregate over an empty range", seed, step)
						}
						continue
					}
					want, err := raw.AggregateInto(nil, inRange)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Fatalf("seed %d step %d: AggRange(%d,%d) differs from AggregateInto over Scan", seed, step, lo, hi)
					}
				}
				tr.validate(t, raw)
			}
		})
	}
}

// TestUpsertRejectsMalformedUntouched: a malformed signature fails at
// Prepare, before the tree is touched.
func TestUpsertRejectsMalformedUntouched(t *testing.T) {
	scheme := bas.New(0)
	priv, _, _ := scheme.KeyGen(nil)
	tr := New(scheme)
	for i := 0; i < 20; i++ {
		if _, _, err := tr.Upsert(Entry{Key: int64(i), Sig: sigFor(t, scheme, priv, fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _ := tr.AggRange(0, 100)
	for _, e := range []Entry{{Key: 7, Sig: []byte("short")}, {Key: 50, Sig: make([]byte, 32)}} {
		if _, _, err := tr.Upsert(e); err == nil {
			t.Fatalf("malformed signature for key %d accepted", e.Key)
		}
	}
	if _, _, err := BulkLoad(scheme, []Entry{{Key: 1, Sig: []byte("short")}}); err == nil {
		t.Fatal("BulkLoad accepted a malformed signature")
	}
	after, _, _ := tr.AggRange(0, 100)
	if tr.Len() != 20 || string(before) != string(after) {
		t.Fatal("a rejected upsert changed the tree")
	}
	tr.validate(t, scheme)
}

// TestAggRangeAllocs: a range aggregate allocates its accumulator and
// its encoding, nothing per piece folded.
func TestAggRangeAllocs(t *testing.T) {
	scheme := bas.New(0)
	priv, _, _ := scheme.KeyGen(nil)
	entries := make([]Entry, 512)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprint(i))}
	}
	tr, _, err := BulkLoad(scheme, entries)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := tr.AggRange(37, 451); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm AggRange allocates %.0f times, want at most 2", allocs)
	}
}
