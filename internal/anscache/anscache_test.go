package anscache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// fakeEpochs is a set of version counters standing in for data shards.
type fakeEpochs struct {
	data [8]atomic.Uint64
}

// stampFor reads the counters of shards [first, last].
func (f *fakeEpochs) stampFor(first, last int) Stamp {
	var st Stamp
	for i := first; i <= last; i++ {
		st.Read(&f.data[i])
	}
	return st
}

func entryFor(key Key, st Stamp, payload string) *Entry {
	return &Entry{Key: key, Value: payload, Wire: []byte(payload), Stamp: st}
}

// TestStampKeepsLowerReading: two probes of one execution can read the
// same counter either side of an update; the merged stamp carries the
// older reading, so it never validates, while a counter read twice at one
// value still does.
func TestStampKeepsLowerReading(t *testing.T) {
	src := &fakeEpochs{}
	src.data[2].Store(5)
	src.data[3].Store(6)
	src.data[5].Store(1)
	probe := src.stampFor(2, 3) // a probe whose window spanned shards 2 and 3
	again := src.stampFor(3, 3)
	src.data[3].Add(3)
	late := src.stampFor(3, 3) // the same shard after an update
	var st Stamp
	st.Merge(probe)
	st.Merge(again)
	st.Merge(late)
	st.Read(&src.data[5])
	want := []reading{{&src.data[2], 5}, {&src.data[3], 6}, {&src.data[5], 1}}
	if len(st.reads) != len(want) {
		t.Fatalf("%d readings, want %d", len(st.reads), len(want))
	}
	for i, r := range want {
		if st.reads[i] != r {
			t.Fatalf("reading %d: %+v, want %+v", i, st.reads[i], r)
		}
	}
	if st.Valid() {
		t.Fatal("a stamp merged from readings either side of a bump validates")
	}
	// Merged in the other order, the later reading still loses.
	late.Merge(probe)
	if late.Valid() {
		t.Fatal("merging an older reading into a current stamp kept the newer one")
	}
	// Re-reading counters at the values they still hold keeps the stamp valid.
	cur := src.stampFor(2, 5)
	cur.Merge(src.stampFor(3, 3))
	cur.Read(&src.data[2])
	if cur.Len() != 4 || !cur.Valid() {
		t.Fatalf("re-read stamp: %d readings, valid %v; want 4 and valid", cur.Len(), cur.Valid())
	}
}

func TestGetAfterDo(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 10, Hi: 20}
	for i := 0; i < 2; i++ { // the second request earns residency
		e, out, err := c.Do(key, func() (*Entry, error) {
			return entryFor(key, src.stampFor(0, 1), "answer"), nil
		})
		if err != nil || out != Built {
			t.Fatalf("Do: %v outcome %v", err, out)
		}
		e.Release()
	}

	e2, ok := c.Get(key)
	if !ok {
		t.Fatal("expected a resident entry")
	}
	if string(e2.Wire) != "answer" || e2.Value.(string) != "answer" {
		t.Fatalf("wrong entry: %q", e2.Wire)
	}
	e2.Release()

	e3, out, err := c.Do(key, func() (*Entry, error) {
		t.Fatal("build must not run on a hit")
		return nil, nil
	})
	if err != nil || out != Hit {
		t.Fatalf("Do on hit: %v outcome %v", err, out)
	}
	e3.Release()
	if st := c.Stats(); st.Hits != 2 || st.Built != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDoCopiesAViewedPlan: a key whose Plan views a reused request
// buffer is looked up in place, but what the cache keeps — the resident
// entry's key — is a copy, so overwriting the buffer afterwards neither
// renames the entry nor loses it.
func TestDoCopiesAViewedPlan(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	frame := []byte("plan-a")
	view := Key{Lo: 1, Hi: 2, Plan: unsafe.String(unsafe.SliceData(frame), len(frame))}
	for i := 0; i < 2; i++ { // the second request earns residency
		e, _, err := c.Do(view, func() (*Entry, error) {
			return entryFor(view, src.stampFor(0, 0), "answer"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	copy(frame, "plan-b")
	e, ok := c.Get(Key{Lo: 1, Hi: 2, Plan: "plan-a"})
	if !ok {
		t.Fatal("the entry is lost once the viewed buffer is overwritten")
	}
	defer e.Release()
	if e.Key.Plan != "plan-a" {
		t.Fatalf("the resident key reads %q, want a copy of %q", e.Key.Plan, "plan-a")
	}
	if _, ok := c.Get(Key{Lo: 1, Hi: 2, Plan: "plan-b"}); ok {
		t.Fatal("the overwritten buffer's bytes found an entry")
	}
}

func TestEpochInvalidation(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	hot := Key{Lo: 0, Hi: 5}    // depends on shards 0..1
	cold := Key{Lo: 50, Hi: 60} // depends on shard 3
	for _, k := range []struct {
		key         Key
		first, last int
	}{{hot, 0, 1}, {cold, 3, 3}, {hot, 0, 1}, {cold, 3, 3}} {
		e, _, err := c.Do(k.key, func() (*Entry, error) {
			return entryFor(k.key, src.stampFor(k.first, k.last), "v"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}

	// An update to shard 1 must invalidate hot but not cold.
	src.data[1].Add(1)
	if _, ok := c.Get(hot); ok {
		t.Fatal("stale entry served after intersecting update")
	}
	if _, ok := c.Get(cold); !ok {
		t.Fatal("non-intersecting entry was flushed")
	}
	// Touching the same shard again keeps cold resident: summary
	// publication is delta-synced at response time, never a flush.
	src.data[1].Add(1)
	if _, ok := c.Get(cold); !ok {
		t.Fatal("entry flushed by a non-intersecting epoch bump")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("expected 1 invalidation: %+v", st)
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 1, Hi: 2}
	const K = 16
	gate := make(chan struct{})
	var builds atomic.Int64
	var outcomes [K]Outcome
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, out, err := c.Do(key, func() (*Entry, error) {
				builds.Add(1)
				<-gate // hold the flight open so others coalesce
				return entryFor(key, src.stampFor(0, 0), "shared"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = out
			if string(e.Wire) != "shared" {
				t.Errorf("wrong bytes %q", e.Wire)
			}
			e.Release()
		}(i)
	}
	// Release the flight only once every other caller has joined it: a
	// caller that reached Do after the flight landed would see a first
	// sighting the cache refused, and build again.
	sh := c.shardOf(key)
	for joined := int64(0); joined != K-1; runtime.Gosched() {
		sh.mu.Lock()
		if f := sh.flights[key]; f != nil {
			joined = f.waiters
		}
		sh.mu.Unlock()
	}
	close(gate)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key", builds.Load())
	}
	built, coal := 0, 0
	for _, o := range outcomes {
		switch o {
		case Built:
			built++
		case Coalesced:
			coal++
		}
	}
	if built != 1 || coal != K-1 {
		t.Fatalf("outcomes built=%d coalesced=%d of %d", built, coal, K)
	}
}

// TestCoalescedStaleRetry: a waiter must not serve a flight result that
// an intersecting update invalidated mid-flight.
func TestCoalescedStaleRetry(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 1, Hi: 2}
	inFlight := make(chan struct{})
	gate := make(chan struct{})
	var builds atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, _, err := c.Do(key, func() (*Entry, error) {
			st := src.stampFor(0, 0)
			close(inFlight)
			<-gate
			return entryFor(key, st, "stale"), nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		e.Release()
	}()
	<-inFlight
	waiterDone := make(chan string)
	go func() {
		e, _, err := c.Do(key, func() (*Entry, error) {
			builds.Add(1)
			return entryFor(key, src.stampFor(0, 0), "fresh"), nil
		})
		if err != nil {
			waiterDone <- err.Error()
			return
		}
		defer e.Release()
		waiterDone <- string(e.Wire)
	}()
	// Wait (in-package: inspect the flight) until the second caller has
	// actually latched onto the leader's flight.
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		f := sh.flights[key]
		joined := f != nil && f.waiters == 1
		sh.mu.Unlock()
		if joined {
			break
		}
	}
	// The update lands while the first build is in flight: its stamp is
	// now stale, so the waiter must rebuild rather than share it.
	src.data[0].Add(1)
	close(gate)
	wg.Wait()
	if got := <-waiterDone; got != "fresh" {
		t.Fatalf("waiter served %q, want a fresh rebuild", got)
	}
	if c.Stats().Retries != 1 {
		t.Fatalf("expected one stale-retry: %+v", c.Stats())
	}
}

func TestSizeBoundAndFrequencyBias(t *testing.T) {
	src := &fakeEpochs{}
	// One lock domain, budget for ~4 small entries.
	c := New(WithShards(1), WithMaxBytes(4*(entryOverhead+8)))
	mk := func(lo int64) Key { return Key{Lo: lo, Hi: lo + 1} }
	put := func(lo int64) {
		key := mk(lo)
		e, _, err := c.Do(key, func() (*Entry, error) {
			return entryFor(key, src.stampFor(0, 0), "12345678"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	for lo := int64(0); lo < 4; lo++ {
		put(lo * 10)
		put(lo * 10)
	}
	// Make entry 0 hot.
	for i := 0; i < 32; i++ {
		if e, ok := c.Get(mk(0)); ok {
			e.Release()
		} else {
			t.Fatal("hot entry missing")
		}
	}
	// A scan of cold ranges, each asked for twice so it passes the
	// doorkeeper and meets the size bound, must not displace the hot entry.
	for lo := int64(100); lo < 140; lo += 10 {
		put(lo)
		put(lo)
	}
	if _, ok := c.Get(mk(0)); !ok {
		t.Fatal("hot entry washed out by a cold scan")
	}
	st := c.Stats()
	if st.Evictions == 0 && st.Rejected == 0 {
		t.Fatalf("size bound never engaged: %+v", st)
	}
	if st.Bytes > 4*(entryOverhead+8) {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
}

// TestReleaseRecyclesWire: a pooled build's buffer returns to its pool on
// its flight's last Release whether or not the cache keeps the answer —
// what is resident is a copy, so a hit frees nothing and neither does
// evicting it.
func TestReleaseRecyclesWire(t *testing.T) {
	src := &fakeEpochs{}
	c := New(WithShards(1), WithMaxBytes(entryOverhead+16))
	var freed atomic.Int64
	put := func(lo int64) *Entry {
		key := Key{Lo: lo, Hi: lo + 1}
		e, _, err := c.Do(key, func() (*Entry, error) {
			ent := entryFor(key, src.stampFor(0, 0), "0123456789abcdef")
			ent.Free = func([]byte) { freed.Add(1) }
			return ent, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	put(0).Release() // first sighting: served, not resident, freed
	e1 := put(0)     // second: resident as a copy
	if freed.Load() != 1 {
		t.Fatal("admitted build freed while its reader holds it")
	}
	e1.Release()
	if freed.Load() != 2 {
		t.Fatalf("admitted build's buffer not freed on its last release (freed=%d)", freed.Load())
	}
	// The second key's admission evicts the first (the budget holds one):
	// its two builds are freed, the evicted copy frees nothing.
	put(100).Release()
	put(100).Release()
	if st := c.Stats(); freed.Load() != 4 || st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after an eviction: freed=%d, %+v; want 4 frees and one eviction", freed.Load(), st)
	}
	hit := put(100)
	if hit.Free != nil || string(hit.Wire) != "0123456789abcdef" {
		t.Fatalf("resident entry: Free set %v, bytes %q", hit.Free != nil, hit.Wire)
	}
	hit.Release()
	if freed.Load() != 4 {
		t.Fatalf("a hit freed a buffer (freed=%d)", freed.Load())
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	src := &fakeEpochs{}
	c := New(WithMaxBytes(1 << 16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				lo := int64((g*7 + i) % 32)
				key := Key{Lo: lo, Hi: lo + 4}
				e, _, err := c.Do(key, func() (*Entry, error) {
					return entryFor(key, src.stampFor(0, 3), fmt.Sprintf("v%d", lo)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("v%d", lo); string(e.Wire) != want {
					t.Errorf("got %q want %q", e.Wire, want)
				}
				e.Release()
				if i%50 == 0 {
					src.data[i%4].Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuildPanicResolvesFlight: a panicking build must resolve the
// flight (waiters get an error, the key is not wedged) and re-raise; it
// handed the cache no buffer, so the cache frees none for it.
func TestBuildPanicResolvesFlight(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 1, Hi: 2}
	inFlight := make(chan struct{})
	gate := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Do(key, func() (*Entry, error) {
			close(inFlight)
			<-gate
			panic("query pipeline bug")
		})
	}()
	<-inFlight
	waiterErr := make(chan error)
	go func() {
		_, _, err := c.Do(key, func() (*Entry, error) {
			return entryFor(key, src.stampFor(0, 0), "unreachable"), nil
		})
		waiterErr <- err
	}()
	// Ensure the waiter has latched onto the flight before it blows up.
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		f := sh.flights[key]
		joined := f != nil && f.waiters == 1
		sh.mu.Unlock()
		if joined {
			break
		}
	}
	close(gate)
	if r := <-leaderDone; r == nil {
		t.Fatal("panic was swallowed instead of re-raised")
	}
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter on a panicked flight got no error")
	}
	// The key must not be wedged: a fresh Do builds normally, and its
	// pooled buffer is freed once, on its release.
	var freed atomic.Int64
	e, out, err := c.Do(key, func() (*Entry, error) {
		ent := entryFor(key, src.stampFor(0, 0), "recovered")
		ent.Free = func([]byte) { freed.Add(1) }
		return ent, nil
	})
	if err != nil || out != Built || string(e.Wire) != "recovered" {
		t.Fatalf("key wedged after build panic: %v %v %q", err, out, e.Wire)
	}
	e.Release()
	if freed.Load() != 1 {
		t.Fatalf("rebuild after a panic freed %d times, want once", freed.Load())
	}
}

// TestClearReleasesResidency: detaching drains every resident entry's
// residency reference so buffers recycle once readers finish.
func TestClearReleasesResidency(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	var freed atomic.Int64
	key := Key{Lo: 7, Hi: 9}
	e, _, err := c.Do(key, func() (*Entry, error) {
		ent := entryFor(key, src.stampFor(0, 0), "payload")
		ent.Free = func([]byte) { freed.Add(1) }
		return ent, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("%d entries survive Clear", c.Len())
	}
	if freed.Load() != 0 {
		t.Fatal("buffer freed while a reader still holds it")
	}
	e.Release()
	if freed.Load() != 1 {
		t.Fatalf("buffer not recycled after last release (freed=%d)", freed.Load())
	}
}

// TestAdmitReclaimsStaleTail: entries invalidated by an epoch bump and
// never requested again do not stay resident until the size bound is
// hit — each later admission reclaims the stale entries of the cold
// window, so the dead residue shrinks instead of growing.
func TestAdmitReclaimsStaleTail(t *testing.T) {
	src := &fakeEpochs{}
	c := New(WithShards(1))
	put := func(lo int64) {
		t.Helper()
		key := Key{Lo: lo, Hi: lo}
		e, _, err := c.Do(key, func() (*Entry, error) {
			return entryFor(key, src.stampFor(0, 0), "v"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	for lo := int64(0); lo < 8; lo++ {
		put(lo)
		put(lo)
	}
	if c.Len() != 8 {
		t.Fatalf("resident %d, want 8", c.Len())
	}
	src.data[0].Add(1) // all eight are stale now, and nobody asks for them again
	for lo := int64(100); lo < 108; lo++ {
		put(lo)
		put(lo)
		if lo == 100 {
			// One admission reclaims every stale entry among the victimScan
			// coldest, not just the coldest.
			if st := c.Stats(); st.Invalidations != victimScan || c.Len() != 8-victimScan+1 {
				t.Fatalf("first admission over eight stale entries: %+v, want %d reclaimed", st, victimScan)
			}
		}
	}
	if c.Len() != 8 {
		t.Fatalf("resident %d after eight admissions over eight stale entries, want 8 live ones", c.Len())
	}
	if st := c.Stats(); st.Invalidations != 8 || st.Evictions != 0 {
		t.Fatalf("stats: %+v, want 8 invalidations and no evictions", st)
	}
	for lo := int64(100); lo < 108; lo++ {
		e, ok := c.Get(Key{Lo: lo, Hi: lo})
		if !ok {
			t.Fatalf("live entry %d was reclaimed", lo)
		}
		e.Release()
	}
}

// do serves key through c with a one-shard-stamped entry and releases it,
// returning the outcome.
func do(t *testing.T, c *Cache, src *fakeEpochs, key Key) Outcome {
	t.Helper()
	e, out, err := c.Do(key, func() (*Entry, error) {
		return entryFor(key, src.stampFor(0, 0), "v"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	return out
}

// TestFirstSightingNotResident: an answer asked for once is served but
// pins nothing; the second request admits it and the third is a hit.
func TestFirstSightingNotResident(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 3, Hi: 9}
	if out := do(t, c, src, key); out != Built {
		t.Fatalf("first request: %v, want built", out)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Rejected != 1 {
		t.Fatalf("first sighting left %+v, want nothing resident and one rejection", st)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("a first sighting is resident")
	}
	if out := do(t, c, src, key); out != Built {
		t.Fatalf("second request: %v, want built", out)
	}
	if c.Len() != 1 {
		t.Fatalf("second sighting not admitted: %d resident", c.Len())
	}
	if out := do(t, c, src, key); out != Hit {
		t.Fatalf("third request: %v, want hit", out)
	}
}

// TestFirstSightingOfZeroKeyNotResident: the range [0,0] hashes to 0, the
// value of an empty doorkeeper slot, and is still refused on its first
// sighting.
func TestFirstSightingOfZeroKeyNotResident(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{}
	if hash(key) != 0 {
		t.Fatalf("hash of [0,0] is %#x; the test wants the key that hashes to 0", hash(key))
	}
	do(t, c, src, key)
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("first sighting of [0,0]: %+v, want nothing resident and one rejection", st)
	}
	do(t, c, src, key)
	if out := do(t, c, src, key); out != Hit {
		t.Fatalf("third request for [0,0]: %v, want hit", out)
	}
}

// TestCoalescedFlightAdmitted: a waiter joining the flight is the second
// request, so the build is resident on its first flight.
func TestCoalescedFlightAdmitted(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 1, Hi: 2}
	inFlight := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := c.Do(key, func() (*Entry, error) {
				close(inFlight)
				<-gate
				return entryFor(key, src.stampFor(0, 0), "shared"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			e.Release()
		}()
		if i == 0 {
			<-inFlight
		}
	}
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		joined := sh.flights[key] != nil && sh.flights[key].waiters == 1
		sh.mu.Unlock()
		if joined {
			break
		}
	}
	close(gate)
	wg.Wait()
	if st := c.Stats(); st.Built != 1 || st.Coalesced != 1 || st.Entries != 1 {
		t.Fatalf("coalesced flight: %+v, want one build, one waiter, resident", st)
	}
}

// TestStaleReplacementReadmitted: a rebuild of a key lookup just dropped
// as stale is re-admitted on its first flight, even once the doorkeeper
// has forgotten the key.
func TestStaleReplacementReadmitted(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	key := Key{Lo: 5, Hi: 6}
	do(t, c, src, key)
	do(t, c, src, key)
	if c.Len() != 1 {
		t.Fatal("warm key not resident")
	}
	c.shardOf(key).door = [doorSlots]uint64{} // the slot was overwritten since
	src.data[0].Add(1)
	if out := do(t, c, src, key); out != Built {
		t.Fatalf("rebuild after invalidation: %v", out)
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stale replacement: %+v, want one invalidation and the rebuild resident", st)
	}
	if out := do(t, c, src, key); out != Hit {
		t.Fatalf("after re-admission: %v, want hit", out)
	}
}

// TestColdSweepPinsNothing: 10,000 distinct once-seen keys over a warm
// 64-key head evict nothing, keep the head resident and add at most a few
// entries' bytes (doorkeeper fingerprint collisions).
func TestColdSweepPinsNothing(t *testing.T) {
	src := &fakeEpochs{}
	const entrySize = entryOverhead + 1 // "v", charged by its length
	c := New(WithShards(1), WithMaxBytes(80*entrySize))
	head := func(i int64) Key { return Key{Lo: i, Hi: i + 1} }
	for i := int64(0); i < 64; i++ {
		do(t, c, src, head(i))
		do(t, c, src, head(i))
	}
	before := c.Stats()
	if before.Entries != 64 {
		t.Fatalf("warm head: %d resident, want 64", before.Entries)
	}
	for i := int64(0); i < 10000; i++ {
		do(t, c, src, Key{Lo: 1000 + i, Hi: 1000 + i})
	}
	after := c.Stats()
	if after.Evictions != 0 {
		t.Fatalf("cold sweep evicted %d entries", after.Evictions)
	}
	if grown := after.Bytes - before.Bytes; grown > 4*entrySize {
		t.Fatalf("cold sweep grew the cache by %d bytes, want at most a few entries' (%d)", grown, 4*entrySize)
	}
	for i := int64(0); i < 64; i++ {
		if out := do(t, c, src, head(i)); out != Hit {
			t.Fatalf("head key %d: %v after the sweep, want hit", i, out)
		}
	}
}

// TestRefusedEntryFreedOnce: a first sighting's buffer returns to its
// pool exactly once, when its reader releases it, and nothing the cache
// does afterwards frees it again.
func TestRefusedEntryFreedOnce(t *testing.T) {
	src := &fakeEpochs{}
	c := New()
	var freed atomic.Int64
	key := Key{Lo: 7, Hi: 8}
	e, _, err := c.Do(key, func() (*Entry, error) {
		ent := entryFor(key, src.stampFor(0, 0), "payload")
		ent.Free = func([]byte) { freed.Add(1) }
		return ent, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if freed.Load() != 0 {
		t.Fatal("refused buffer freed while its reader holds it")
	}
	e.Release()
	if freed.Load() != 1 {
		t.Fatalf("refused buffer freed %d times on its last release, want once", freed.Load())
	}
	c.Clear()
	src.data[0].Add(1)
	do(t, c, src, key)
	if freed.Load() != 1 {
		t.Fatalf("refused buffer freed %d times, want once", freed.Load())
	}
}

// TestReclaimWholeColdWindow: with k stale entries among the victimScan
// coldest, one admission reclaims all k and no live one — not a stale
// entry outside the window either — and a reclaimed key keeps its
// doorkeeper ticket: its next rebuild is admitted, and the request after
// that is a hit.
func TestReclaimWholeColdWindow(t *testing.T) {
	src := &fakeEpochs{}
	c := New(WithShards(1))
	key := func(lo int64) Key { return Key{Lo: lo, Hi: lo + 1} }
	// Keys 0..5 resident, 0 coldest; the even ones read shard 0, the odd
	// ones shard 1.
	put := func(lo int64) Outcome {
		t.Helper()
		e, out, err := c.Do(key(lo), func() (*Entry, error) {
			return entryFor(key(lo), src.stampFor(int(lo%2), int(lo%2)), "v"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
		return out
	}
	for lo := int64(0); lo < 6; lo++ {
		put(lo)
		put(lo)
	}
	src.data[0].Add(1) // 0, 2 and 4 are stale; 0 and 2 are in the cold window
	// The doorkeeper has since forgotten every key: a reclaimed key's
	// ticket can only come from its reclaim.
	c.shards[0].door = [doorSlots]uint64{}
	put(100) // first sighting: no admission, nothing reclaimed
	if st := c.Stats(); st.Invalidations != 0 || st.Entries != 6 {
		t.Fatalf("before the reclaiming admission: %+v, want six resident and nothing reclaimed", st)
	}
	put(100)
	if st := c.Stats(); st.Invalidations != 2 || st.Evictions != 0 || st.Entries != 5 {
		t.Fatalf("one admission over 2 stale of the %d coldest: %+v, want 2 reclaimed and 5 resident", victimScan, st)
	}
	sh := &c.shards[0]
	for lo, resident := range map[int64]bool{0: false, 2: false, 1: true, 3: true, 4: true, 5: true, 100: true} {
		if _, ok := sh.entries[key(lo)]; ok != resident {
			t.Fatalf("key %d resident %v after the reclaim, want %v", lo, ok, resident)
		}
	}
	for _, lo := range []int64{0, 2} {
		if out := put(lo); out != Built {
			t.Fatalf("reclaimed key %d: %v, want built", lo, out)
		}
		if out := put(lo); out != Hit {
			t.Fatalf("reclaimed key %d after its rebuild: %v, want hit (its ticket was lost)", lo, out)
		}
	}
}

// pooled is a build's buffer under custody accounting: Free may run only
// once every caller that was handed the built entry has released it, and
// it overwrites the buffer, as a pool's next user would.
type pooled struct {
	t       *testing.T
	holders atomic.Int64 // callers still holding the built entry
	freed   atomic.Int64
}

const pooledAnswer = "a pooled answer"

func (p *pooled) build(key Key, st Stamp) *Entry {
	e := entryFor(key, st, pooledAnswer)
	e.Free = func(b []byte) {
		if n := p.holders.Load(); n != 0 {
			p.t.Errorf("buffer freed while %d callers still hold it", n)
		}
		for i := range b {
			b[i] = 'x'
		}
		p.freed.Add(1)
	}
	return e
}

// flight serves key to 1+waiters concurrent callers that all share one
// build: the build waits until every other caller has joined its flight.
// Each caller checks the bytes it was served before releasing them.
func (p *pooled) flight(c *Cache, key Key, waiters int, build func() *Entry) {
	p.t.Helper()
	sh := c.shardOf(key)
	gated := func() (*Entry, error) {
		for joined := int64(0); joined != int64(waiters); runtime.Gosched() {
			sh.mu.Lock()
			joined = sh.flights[key].waiters
			sh.mu.Unlock()
		}
		return build(), nil
	}
	p.holders.Store(int64(1 + waiters))
	var wg sync.WaitGroup
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, out, err := c.Do(key, gated)
			if err != nil || out == Hit {
				p.t.Errorf("flight: %v, %v", out, err)
				return
			}
			if string(e.Wire) != pooledAnswer {
				p.t.Errorf("served %q, want %q", e.Wire, pooledAnswer)
			}
			p.holders.Add(-1)
			e.Release()
		}()
	}
	wg.Wait()
}

// TestBuiltBufferFreedOnceAfterFlight: a build with a Free hook is freed
// exactly once, after its flight's last Release, whatever the cache does
// with it; and when the cache keeps the answer, the resident entry is an
// exactly sized copy with no Free and no shared backing array — it reads
// the answer after the built buffer has been freed and overwritten.
func TestBuiltBufferFreedOnceAfterFlight(t *testing.T) {
	key := Key{Lo: 4, Hi: 8}
	other := Key{Lo: 40, Hi: 80}
	for _, tc := range []struct {
		name     string
		opts     []Option
		setup    func(c *Cache, src *fakeEpochs) // before the flight
		waiters  int
		midwrite bool // an update lands between the build's stamp and its publication
		resident bool
	}{
		{name: "first sighting"},
		{name: "admitted", setup: func(c *Cache, src *fakeEpochs) { do(t, c, src, key) }, resident: true},
		{name: "coalesced waiters", waiters: 3, resident: true},
		{name: "stale replacement", setup: func(c *Cache, src *fakeEpochs) {
			do(t, c, src, key)
			do(t, c, src, key)
			c.shardOf(key).door = [doorSlots]uint64{}
			src.data[0].Add(1)
		}, resident: true},
		{name: "refused by the frequency bias", opts: []Option{WithShards(1), WithMaxBytes(entryOverhead + 16)},
			setup: func(c *Cache, src *fakeEpochs) {
				do(t, c, src, other)
				do(t, c, src, other)
				do(t, c, src, other) // a hit: hotter than the newcomer
				do(t, c, src, key)
			}},
		{name: "oversize", opts: []Option{WithShards(1), WithMaxBytes(entryOverhead)},
			setup: func(c *Cache, src *fakeEpochs) { do(t, c, src, key) }},
		{name: "invalidated mid-flight", setup: func(c *Cache, src *fakeEpochs) { do(t, c, src, key) }, midwrite: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &fakeEpochs{}
			c := New(tc.opts...)
			if tc.setup != nil {
				tc.setup(c, src)
			}
			p := &pooled{t: t}
			p.flight(c, key, tc.waiters, func() *Entry {
				st := src.stampFor(0, 0)
				if tc.midwrite {
					src.data[0].Add(1)
				}
				return p.build(key, st)
			})
			if n := p.freed.Load(); n != 1 {
				t.Fatalf("built buffer freed %d times after its flight, want once", n)
			}
			hit, ok := c.Get(key)
			if ok != tc.resident {
				t.Fatalf("resident %v, want %v", ok, tc.resident)
			}
			if ok {
				if hit.Free != nil || len(hit.Wire) != cap(hit.Wire) || string(hit.Wire) != pooledAnswer {
					t.Fatalf("resident entry: Free set %v, %d bytes in %d, %q; want an exact copy of %q",
						hit.Free != nil, len(hit.Wire), cap(hit.Wire), hit.Wire, pooledAnswer)
				}
				if st := c.Stats(); st.Bytes != int64(len(pooledAnswer))+entryOverhead {
					t.Fatalf("resident entry charged %d, want its length plus bookkeeping (%d)", st.Bytes, len(pooledAnswer)+entryOverhead)
				}
				hit.Release()
			}
			c.Clear()
			if n := p.freed.Load(); n != 1 {
				t.Fatalf("built buffer freed %d times in all, want once", n)
			}
		})
	}
}

// TestBuildErrorCachesNothing: a build that fails — an encoder that
// refuses, a scan that errs — reaches its caller and every waiter on its
// flight as an error and leaves nothing resident, and the next request
// builds afresh; once builds succeed again, each built buffer is freed
// exactly once.
func TestBuildErrorCachesNothing(t *testing.T) {
	c := New()
	src := &fakeEpochs{}
	key := Key{Lo: 1, Hi: 9}
	var frees atomic.Int64
	failing := true
	build := func() (*Entry, error) {
		if failing {
			return nil, fmt.Errorf("encode refused")
		}
		e := entryFor(key, src.stampFor(0, 0), "answer")
		e.Free = func([]byte) { frees.Add(1) }
		return e, nil
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do(key, build); err == nil {
			t.Fatal("a failing build was served")
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Built != 2 {
		t.Fatalf("after two failed builds: %+v, want two builds and nothing resident", st)
	}
	failing = false
	for i, want := range []Outcome{Built, Built, Hit} {
		e, outcome, err := c.Do(key, build)
		if err != nil || outcome != want || string(e.Wire) != "answer" {
			t.Fatalf("request %d after recovery: %v, %v, %q; want %v", i, outcome, err, e.Wire, want)
		}
		e.Release()
	}
	c.Clear()
	if n := frees.Load(); n != 2 {
		t.Fatalf("two builds freed %d buffers, want each once", n)
	}
}
