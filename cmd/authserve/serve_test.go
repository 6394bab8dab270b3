package main

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
)

// bootTest boots a catalog from command-line flags on an ephemeral port
// and starts serving; the returned stop drains the listener and closes
// the runtimes (a clean shutdown, which — like a crash — writes no
// snapshot).
func bootTest(t *testing.T, args ...string) (*catalogServer, func()) {
	t.Helper()
	f, err := parseFlags("serve", append([]string{"-addr", "127.0.0.1:0", "-scheme", "xortest", "-keyseed", "t", "-update-every", "0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	s, err := bootPrimary(f)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.srv.Serve(s.ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.srv.Shutdown(ctx)
			<-serveErr
			s.close()
		})
	}
	t.Cleanup(stop)
	return s, stop
}

// beats drives the background writer by hand for n ticks.
func beats(t *testing.T, s *catalogServer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.beat(); err != nil {
			t.Fatal(err)
		}
	}
}

// clientQuery runs the real `authserve query` against n, a primary's
// node or a follower's.
func clientQuery(n *node, args ...string) error {
	return runQuery(append([]string{"-addr", n.srv.Addr().String(), "-scheme", "xortest", "-keyseed", "t",
		"-catalog", strings.Join(n.f.names, ",")}, args...))
}

// TestCatalogRecoversPerRelation: a two-relation catalog comes back
// from its per-relation stores — outer updates, a dripped inner key and
// the period closes on both all replayed — closes one period per
// relation at boot, and a BF join, a projection and a plain range verify
// through a loopback client afterwards.
func TestCatalogRecoversPerRelation(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-catalog", "o,i", "-n", "300", "-data", dir, "-summary-every", "5", "-snap-every", "0"}
	s, stop := bootTest(t, args...)
	beats(t, s, 23)
	want := [2]int{s.rts[0].QS.Len(), s.rts[1].QS.Len()}
	if want[1] != 300/3+4 {
		t.Fatalf("inner relation holds %d records, want the load plus 4 dripped keys", want[1])
	}
	ts, lsns := s.ts(), [2]uint64{s.rts[0].LSN(), s.rts[1].LSN()}
	stop()

	s, _ = bootTest(t, args...)
	if got := [2]int{s.rts[0].QS.Len(), s.rts[1].QS.Len()}; got != want {
		t.Fatalf("recovered %v records, want %v", got, want)
	}
	if s.ts() <= ts {
		t.Fatalf("booted at ts %d, not past the recovered %d: no period closed at boot", s.ts(), ts)
	}
	// Boot logged (so signed) nothing but one period close per relation
	// and the inner relation's filter re-certified at it, and a BF join
	// verifies before the writer's first beat.
	if got, want := [2]uint64{s.rts[0].LSN(), s.rts[1].LSN()}, [2]uint64{lsns[0] + 1, lsns[1] + 2}; got != want {
		t.Fatalf("boot after recovery moved the relations to lsn %v, want %v", got, want)
	}
	if err := clientQuery(s.node, "-join", "i", "-method", "bf", "-lo", "100", "-hi", "2500"); err != nil {
		t.Fatalf("BF join on the recovered catalog, before the writer's first beat: %v", err)
	}
	beats(t, s, 7) // the recovered owners keep certifying
	for _, q := range [][]string{
		{"-join", "i", "-method", "bf", "-attrs", "0", "-lo", "100", "-hi", "2500", "-count", "2"},
		{"-join", "i", "-method", "bv", "-lo", "100", "-hi", "900"},
		{"-attrs", "0,1", "-lo", "100", "-hi", "2500"},
		{"-rel", "i", "-lo", "0", "-hi", "5000"},
		{"-lo", "0", "-hi", "5000"},
	} {
		if err := clientQuery(s.node, q...); err != nil {
			t.Errorf("query %v after recovery: %v", q, err)
		}
	}
}

// TestFollowServesCatalog: `authserve follow -catalog o,i` is the same
// boot over the same catalog, fed by the primary's per-relation feeds: it
// answers a BF join, a BV join and a projection — each verified by the
// real client — from its bootstrap images, and again after the writer's
// re-certified filter and dripped inner key arrived over the feed.
func TestFollowServesCatalog(t *testing.T) {
	s, _ := bootTest(t, "-catalog", "o,i", "-n", "300", "-summary-every", "5")
	beats(t, s, 12)

	f, err := parseFlags("follow", []string{"-addr", "127.0.0.1:0", "-scheme", "xortest", "-keyseed", "t", "-catalog", "o,i",
		"-primary", s.srv.Addr().String(), "-feed-timeout", "2"})
	if err != nil {
		t.Fatal(err)
	}
	n, fls, err := bootFollower(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var feeds sync.WaitGroup
	for _, fl := range fls {
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			fl.Run(ctx, f.primary)
		}()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- n.srv.Serve(n.ln) }()
	t.Cleanup(func() {
		cancel()
		feeds.Wait()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		n.srv.Shutdown(sctx)
		<-serveErr
	})
	caughtUp := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i, fl := range fls {
			for fl.AppliedLSN() != s.srcs[i].LastLSN() {
				if time.Now().After(deadline) {
					t.Fatalf("follower of %q stuck at lsn %d, primary at %d", f.names[i], fl.AppliedLSN(), s.srcs[i].LastLSN())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	queries := func(when string) {
		t.Helper()
		for _, q := range [][]string{
			{"-join", "i", "-method", "bf", "-attrs", "0", "-lo", "100", "-hi", "2500", "-count", "2"},
			{"-join", "i", "-method", "bv", "-lo", "100", "-hi", "900"},
			{"-attrs", "0,1", "-lo", "100", "-hi", "2500"},
			{"-rel", "i", "-lo", "0", "-hi", "5000"},
		} {
			if err := clientQuery(n, q...); err != nil {
				t.Errorf("query %v against the follower, %s: %v", q, when, err)
			}
		}
	}
	caughtUp()
	for i, fl := range fls {
		if st := fl.Stats(); st.Bootstraps != 1 || st.Records != 0 {
			t.Fatalf("follower of %q: %+v, want everything from one image", f.names[i], st)
		}
	}
	queries("from its bootstrap images")
	beats(t, s, 10) // two period closes: two dripped inner keys, two re-certifications
	caughtUp()
	if st := fls[1].Stats(); st.Bootstraps != 1 || st.Records == 0 {
		t.Fatalf("inner follower: %+v, want the re-certifications applied off the feed", st)
	}
	if pfc := s.rts[1].QS.Filter(nil); pfc == nil {
		t.Fatal("primary holds no filter for the inner relation")
	} else if ffc := fls[1].QS().Filter(nil); ffc == nil || ffc.TS != pfc.TS {
		t.Fatalf("follower's filter %+v, primary's certified at %d", ffc, pfc.TS)
	}
	queries("after re-certifications over the feed")
}

// TestCatalogSnapshotStampedAtItsCut: every relation of a catalog takes
// its periodic snapshots at the logical time of the cut, not of boot,
// so the image on disk says how fresh it is.
func TestCatalogSnapshotStampedAtItsCut(t *testing.T) {
	dir := t.TempDir()
	s, stop := bootTest(t, "-catalog", "o,i", "-n", "90", "-data", dir, "-summary-every", "2", "-snap-every", "4")
	bootTS := s.ts()
	beats(t, s, 40)
	last := s.ts()
	stop()
	for _, name := range []string{"o", "i"} {
		store, err := wal.Open(dir+"/"+name, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.LoadSnapshot()
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.LSN <= 1 || snap.TS <= bootTS || snap.TS > last {
			t.Errorf("relation %q: snapshot at lsn %d stamped ts %d; boot was ts %d, the writer reached %d",
				name, snap.LSN, snap.TS, bootTS, last)
		}
	}
}

// TestCatalogNetFlagsTakeEffect: the listener's limits reach a
// multi-relation catalog. With one execution slot and no queue,
// concurrent clients see requests shed with the overload code; a frame
// over -max-frame is refused.
func TestCatalogNetFlagsTakeEffect(t *testing.T) {
	s, _ := bootTest(t, "-catalog", "a,b", "-n", "2000", "-max-inflight", "1", "-max-pending", "0", "-max-frame", "64")
	scheme, err := schemeByName("xortest")
	if err != nil {
		t.Fatal(err)
	}
	_, pub, err := scheme.KeyGen(relKeyRand("t", "xortest", "a"))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sigagg.Bind(scheme, pub)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	deadline := time.Now().Add(10 * time.Second)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(s.srv.Addr().String(), client.Config{Scheme: bound, Pub: pub, DialTimeout: 5 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			specs := []*query.Spec{{Rel: core.DefaultRelation, Lo: 0, Hi: 20000}, {Rel: core.DefaultRelation, Lo: 0, Hi: 20000}}
			for time.Now().Before(deadline) {
				mu.Lock()
				done := shed > 0
				mu.Unlock()
				if done {
					return
				}
				if _, err := cl.QueryPlans(specs); errors.Is(err, client.ErrOverloaded) {
					mu.Lock()
					shed++
					mu.Unlock()
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shed == 0 || s.srv.Stats().Shed == 0 {
		t.Fatalf("-max-inflight 1 shed nothing under 6 concurrent clients (clients saw %d, server counted %d)", shed, s.srv.Stats().Shed)
	}

	// 64 bytes fit a range request but not a plan projecting 100 slots.
	err = clientQuery(s.node, "-attrs", strings.TrimSuffix(strings.Repeat("0,", 100), ","), "-lo", "0", "-hi", "10")
	if err == nil || s.srv.Stats().Malformed == 0 {
		t.Fatalf("a frame over -max-frame was served (err %v, malformed %d)", err, s.srv.Stats().Malformed)
	}
}

// TestCatalogMetricsCoverEveryStore: -stats-addr exports WAL gauges for
// each relation's store, and none without -data.
func TestCatalogMetricsCoverEveryStore(t *testing.T) {
	scrape := func(s *catalogServer) string {
		var m server.MetricsBuf
		for _, fn := range s.metricFns() {
			fn(&m)
		}
		return string(m.Bytes())
	}
	s, _ := bootTest(t, "-catalog", "o,i", "-n", "60", "-data", t.TempDir())
	beats(t, s, 20)
	out := scrape(s)
	for _, want := range []string{`authdb_wal_last_lsn{rel="o"} 22`, `authdb_wal_last_lsn{rel="i"} 5`, `authdb_wal_durable_lsn{rel="i"}`, `authdb_repl_last_lsn{rel="o"} 22`, `authdb_repl_last_lsn{rel="i"} 5`, "authdb_query_plans_total", "authdb_query_stamp_shards_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape lacks %q:\n%s", want, out)
		}
	}
	mem, _ := bootTest(t, "-n", "60")
	if out := scrape(mem); strings.Contains(out, "authdb_wal_") || !strings.Contains(out, `authdb_repl_last_lsn{rel="r"} 1`) {
		t.Errorf("in-memory one-relation scrape should carry the feed's gauges and no WAL ones:\n%s", out)
	}
}
