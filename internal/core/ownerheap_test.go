package core

import (
	"runtime"
	"testing"

	"authdb/internal/sigagg/xortest"
)

// ownerHeapPerRecord is the heap the data aggregator alone holds per
// record after loading n records and closing one period: HeapAlloc with
// the aggregator live minus HeapAlloc once it is dropped, with the load
// message — whose record bodies and signatures the query server shares —
// kept alive across both readings.
func ownerHeapPerRecord(t *testing.T, n int) float64 {
	t.Helper()
	heapAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	raw := xortest.New()
	priv, _, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	da, err := NewDataAggregator(raw, priv, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := da.Load(mkRecords(n, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := da.ClosePeriod(200); err != nil {
		t.Fatal(err)
	}
	with := heapAlloc()
	runtime.KeepAlive(da)
	da = nil
	without := heapAlloc()
	runtime.KeepAlive(msg)
	return (float64(with) - float64(without)) / float64(n)
}

// TestOwnerHeapPerRecord: the owner keeps one key order and one slot per
// record beside the age heap, not a second index and a rid map, so it
// holds at most 60 B per record beyond the bodies it shares.
func TestOwnerHeapPerRecord(t *testing.T) {
	const n = 200_000
	if got := ownerHeapPerRecord(t, n); got > 60 {
		t.Fatalf("the owner holds %.1f B per record at n = %d, want ≤ 60", got, n)
	}
}
