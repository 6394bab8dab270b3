package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

func newShardedSystem(t *testing.T, scheme sigagg.Scheme, n int, opts ...Option) *System {
	t.Helper()
	sys, err := NewSystem(scheme, DefaultConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	load(t, sys, n)
	return sys
}

func TestShardedQueriesVerifyAcrossShards(t *testing.T) {
	sys := newShardedSystem(t, xortest.New(), 512)
	if got := sys.QS.Shards(); got != DefaultShards {
		t.Fatalf("Shards() = %d, want %d", got, DefaultShards)
	}
	// Ranges chosen to overlap one, several and all shards.
	for _, r := range [][2]int64{{10, 50}, {600, 1400}, {1, 5120}, {2500, 2500}, {5121, 9000}} {
		ans, err := sys.QS.Query(r[0], r[1])
		if err != nil {
			t.Fatalf("Query(%d,%d): %v", r[0], r[1], err)
		}
		if _, err := sys.Verifier.VerifyAnswer(ans, r[0], r[1], 200); err != nil {
			t.Fatalf("verify [%d,%d]: %v", r[0], r[1], err)
		}
	}
}

// Once the keyspace is split, an update takes the topology shared like
// every query: it neither waits for the queries in flight nor queues new
// ones behind an exclusive request.
func TestApplyAfterSeedingSkipsTopologyLock(t *testing.T) {
	sys := newShardedSystem(t, xortest.New(), 512)
	if sys.QS.bounds == nil || sys.QS.Shards() != DefaultShards {
		t.Fatalf("the load did not split the keyspace into %d shards", DefaultShards)
	}
	msg, err := sys.DA.Update(100, [][]byte{[]byte("v2")}, 200)
	if err != nil {
		t.Fatal(err)
	}
	sys.QS.topo.RLock() // a query in flight
	defer sys.QS.topo.RUnlock()
	done := make(chan error, 1)
	go func() { done <- sys.QS.Apply(msg) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Apply waited for a query holding the topology shared")
	}
}

func TestProofOpsLogarithmic(t *testing.T) {
	const n = 1 << 13
	sys := newShardedSystem(t, xortest.New(), n)
	rng := rand.New(rand.NewSource(3))
	// An O(log n)-per-shard bound: 4 log2(n) per overlapped shard plus
	// the cross-shard combines.
	bound := sys.QS.Shards()*(4*int(math.Log2(n))+4) + sys.QS.Shards()
	for i := 0; i < 50; i++ {
		k := rng.Int63n(n/2) + 10
		lo := rng.Int63n(10*n - 10*k)
		ans, err := sys.QS.Query(lo, lo+10*k)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Ops > bound {
			t.Fatalf("query [%d,%d] (%d records) spent %d aggregation ops, bound %d",
				lo, lo+10*k, len(ans.Chain.Records), ans.Ops, bound)
		}
		if len(ans.Chain.Records) > 100 && ans.Ops >= len(ans.Chain.Records)-1 {
			t.Fatalf("ops %d not below linear cost %d", ans.Ops, len(ans.Chain.Records)-1)
		}
	}
}

func TestLinearBaselineMatchesTree(t *testing.T) {
	sys := newShardedSystem(t, xortest.New(), 400)
	// The linear baseline folds every result signature of the exact
	// signed state, in key order: k-1 operations for k records.
	image := sys.QS.Snapshot().Records
	for _, r := range [][2]int64{{10, 400}, {395, 2300}, {1, 4000}} {
		tree, err := sys.QS.Query(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		var sigs []sigagg.Signature
		for _, sr := range image {
			if sr.Rec.Key >= r[0] && sr.Rec.Key <= r[1] {
				sigs = append(sigs, sr.Sig)
			}
		}
		lin, err := sys.Scheme.AggregateInto(nil, sigs)
		if err != nil {
			t.Fatal(err)
		}
		if string(tree.Chain.Agg) != string(lin) {
			t.Fatalf("aggregates differ on [%d,%d]", r[0], r[1])
		}
		k := len(sigs)
		if len(tree.Chain.Records) != k {
			t.Fatalf("tree answer has %d records, the replay %d", len(tree.Chain.Records), k)
		}
		if k > 50 && tree.Ops >= k-1 {
			t.Fatalf("tree ops %d not below linear %d for k=%d", tree.Ops, k-1, k)
		}
		if _, err := sys.Verifier.VerifyAnswer(tree, r[0], r[1], 200); err != nil {
			t.Fatalf("tree answer fails verification: %v", err)
		}
	}
}

func TestWideningAcrossEmptiedShards(t *testing.T) {
	sys := newShardedSystem(t, xortest.New(), 256) // keys 10..2560
	// Empty out everything above key 400: the top shards become empty,
	// so boundary lookups near the top must widen leftwards across them.
	ts := int64(200)
	for key := int64(410); key <= 2560; key += 10 {
		msg, err := sys.DA.Delete(key, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	// Empty range far above the remaining population: the anchor search
	// must walk down across several empty shards.
	ans, err := sys.QS.Query(2000, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 0 || ans.Chain.Anchor == nil {
		t.Fatal("expected anchored empty answer")
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 2000, 2500, ts+100); err != nil {
		t.Fatalf("verify empty range over emptied shards: %v", err)
	}
	// Range straddling the populated/empty boundary.
	ans, err = sys.QS.Query(300, 2560)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ans.Chain.Records); got != 11 { // keys 300..400
		t.Fatalf("got %d records, want 11", got)
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 300, 2560, ts+100); err != nil {
		t.Fatal(err)
	}
	// Everything below the population.
	ans, err = sys.QS.Query(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 1, 5, ts+100); err != nil {
		t.Fatal(err)
	}
}

// TestMultiShardProofUnderUpdates runs concurrent queries whose one
// running sum folds several shards' covers while updates land on those
// shards. Run with -race.
func TestMultiShardProofUnderUpdates(t *testing.T) {
	sys, err := NewSystem(xortest.New(), DefaultConfig(), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	load(t, sys, 512)

	msgs := make(chan *UpdateMsg, 128)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(msgs)
		for i := 0; i < 150; i++ {
			key := int64((i%512)+1) * 10
			msg, err := sys.DA.Update(key, [][]byte{[]byte(fmt.Sprintf("p-%d", i))}, int64(100+i))
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
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				lo := int64((seed*41+int64(i)*13)%4000) + 1
				ans, err := sys.QS.Query(lo, lo+900) // spans several shards
				if err != nil {
					t.Error(err)
					return
				}
				v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
				if _, err := v.VerifyAnswer(ans, lo, lo+900, 10_000); err != nil {
					t.Errorf("multi-shard answer failed verification: %v", err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
