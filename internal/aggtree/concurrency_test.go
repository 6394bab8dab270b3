package aggtree

import (
	"fmt"
	"sync"
	"testing"

	"authdb/internal/sigagg/xortest"
)

// TestConcurrentReadsDuringWrites mirrors the query-server usage: one
// writer mutates under an external write lock while readers aggregate
// ranges under read locks. Run with -race.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	const n = 2048
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), RID: uint64(i), Sig: sigFor(t, scheme, priv, fmt.Sprintf("c-%d", i))}
	}
	tr, _, err := BulkLoad(scheme, entries)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.RWMutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			sig := sigFor(t, scheme, priv, fmt.Sprintf("w-%d", i))
			mu.Lock()
			switch i % 3 {
			case 0:
				_, _, err = tr.Upsert(Entry{Key: int64(i % n), RID: uint64(i), Sig: sig})
			case 1:
				tr.Delete(int64((i * 7) % n))
			default:
				_, _, err = tr.Upsert(Entry{Key: int64(n + i), RID: uint64(i), Sig: sig})
			}
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				lo := (seed*31 + int64(i)*17) % n
				mu.RLock()
				_, _, err := tr.AggRange(lo, lo+97)
				l := tr.Len()
				mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				if l < 0 {
					t.Error("negative len")
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	tr.validate(t, scheme)
}
