package core

import (
	"authdb/internal/anscache"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"authdb/internal/sigagg/xortest"
)

// TestConcurrentQueriesAndUpdates exercises the server-side concurrency
// claim of §3.2: queries proceed while updates to individual records
// apply, with no global serialization point. Run with -race.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 512)

	// The DA is single-writer by design; serialize its operations and
	// fan the resulting messages into the concurrently-queried server.
	msgs := make(chan *UpdateMsg, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(msgs)
		for i := 0; i < 200; i++ {
			key := int64((i%512)+1) * 10
			msg, err := sys.DA.Update(key, [][]byte{[]byte(fmt.Sprintf("v-%d", i))}, int64(100+i))
			if err != nil {
				t.Error(err)
				return
			}
			msgs <- msg
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for msg := range msgs {
			if err := sys.QS.Apply(msg); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lo := int64((seed*37+int64(i)*11)%4000) + 1
				ans, err := sys.QS.Query(lo, lo+500)
				if err != nil {
					t.Error(err)
					return
				}
				// Every answer must verify even while updates land: the
				// answer is a consistent snapshot under the server lock.
				v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
				if _, err := v.VerifyAnswer(ans, lo, lo+500, 10_000); err != nil {
					t.Errorf("concurrent answer failed verification: %v", err)
					return
				}
				_ = sys.QS.Len()
			}
		}(int64(r))
	}
	wg.Wait()

	// Final state remains verifiable.
	ans, err := sys.QS.Query(10, 5120)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 10, 5120, 10_000); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentServeWithAnswerCache races answers served through an
// answer cache of QueryStamped results, Apply (invalidating updates), and
// — the recovery boundary — periodic Snapshot/Restore cycles, asserting
// the stamp's core guarantee: no served answer is older than any
// intersecting update that completed before the serve began. A Restore
// that reset (rather than advanced) the epochs would let entries
// stamped before it serve again and trip the floor check below. Run
// with -race.
func TestConcurrentServeWithAnswerCache(t *testing.T) {
	sys := newSystem(t, xortest.New())
	const n = 512
	load(t, sys, n)
	cache := anscache.New()
	serve := func(lo, hi int64) (*anscache.Entry, anscache.Outcome, error) {
		return cache.Do(anscache.Key{Lo: lo, Hi: hi}, func() (*anscache.Entry, error) {
			ans, stamp, err := sys.QS.QueryStamped(lo, hi)
			if err != nil {
				return nil, err
			}
			return &anscache.Entry{Value: ans, Stamp: stamp}, nil
		})
	}

	// floor[i] is the TS of the last COMPLETED update to key (i+1)*10;
	// stored only after Apply returns, so any serve that starts later
	// must observe at least this version.
	var floor [n]atomic.Int64
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer: the DA is single-writer by design
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			slot := (i * 37) % n
			key := int64(slot+1) * 10
			ts := int64(1000 + i)
			msg, err := sys.DA.Update(key, [][]byte{[]byte(fmt.Sprintf("v-%d", ts))}, ts)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sys.QS.Apply(msg); err != nil {
				t.Error(err)
				return
			}
			floor[slot].Store(ts)
			if i%75 == 74 {
				// Recovery boundary under traffic: restore the server to
				// its own consistent cut. State is unchanged, so the
				// floors still hold — but every cache entry built before
				// this point must now be epoch-invalid.
				if err := sys.QS.Restore(sys.QS.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
			for i := 0; i < 150; i++ {
				startSlot := int((seed*31 + int64(i)*17) % (n - 40))
				lo := int64(startSlot+1) * 10
				hi := lo + 300 // ~31 records
				// Snapshot the floors BEFORE serving: updates completed
				// by now must be visible in whatever we are served.
				var floors [31]int64
				for s := 0; s < 31; s++ {
					floors[s] = floor[startSlot+s].Load()
				}
				e, outcome, err := serve(lo, hi)
				if err != nil {
					t.Error(err)
					return
				}
				ans := e.Value.(*Answer)
				for _, rec := range ans.Chain.Records {
					s := int(rec.Key/10) - 1 - startSlot
					if s < 0 || s >= 31 {
						continue
					}
					if rec.TS < floors[s] {
						t.Errorf("stale answer (%v): key %d served ts=%d, update ts=%d completed before serve",
							outcome, rec.Key, rec.TS, floors[s])
					}
				}
				if i%10 == 0 {
					if _, err := v.VerifyAnswer(ans, lo, hi, 100_000); err != nil {
						t.Errorf("served answer failed verification: %v", err)
					}
				}
				e.Release()
			}
		}(int64(r))
	}
	wg.Wait()

	// Final state: a full-range serve reflects every completed update
	// and verifies.
	e, _, err := serve(10, n*10)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	final := e.Value.(*Answer)
	for _, rec := range final.Chain.Records {
		slot := int(rec.Key/10) - 1
		if want := floor[slot].Load(); want != 0 && rec.TS < want {
			t.Errorf("final state: key %d at ts=%d, want >= %d", rec.Key, rec.TS, want)
		}
	}
	if _, err := sys.Verifier.VerifyAnswer(final, 10, n*10, 100_000); err != nil {
		t.Fatal(err)
	}
}
