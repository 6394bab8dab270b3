package main

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
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
// node or a follower's, under xortest.
func clientQuery(n *node, args ...string) error {
	return clientQueryUnder("xortest", n, args...)
}

// clientQueryUnder runs the real `authserve query` against n under scheme.
func clientQueryUnder(scheme string, n *node, args ...string) error {
	return runQuery(append([]string{"-addr", n.srv.Addr().String(), "-scheme", scheme, "-keyseed", "t",
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

// follow boots `authserve follow` over the catalog on an ephemeral port,
// against s's listener, and serves; the feeds and the listener stop with
// the test.
func follow(t *testing.T, s *catalogServer, args ...string) (*node, []*replica.Follower) {
	t.Helper()
	f, err := parseFlags("follow", append([]string{"-addr", "127.0.0.1:0", "-catalog", strings.Join(s.f.names, ","),
		"-primary", s.srv.Addr().String(), "-feed-timeout", "2"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	n, fls, stop, err := bootFollower(f)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- n.srv.Serve(n.ln) }()
	t.Cleanup(func() {
		stop()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		n.srv.Shutdown(sctx)
		<-serveErr
	})
	return n, fls
}

// caughtUp waits until every follower has applied what s's feeds
// published.
func caughtUp(t *testing.T, s *catalogServer, fls []*replica.Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, fl := range fls {
		for fl.Stats().AppliedLSN != s.srcs[i].LastLSN() {
			if time.Now().After(deadline) {
				t.Fatalf("follower of %q stuck at lsn %d, primary at %d", s.f.names[i], fl.Stats().AppliedLSN, s.srcs[i].LastLSN())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestFollowServesCatalog: `authserve follow -catalog o,i` is the same
// boot over the same catalog, fed by the primary's per-relation feeds: it
// answers a BF join, a BV join and a projection — each verified by the
// real client — from its bootstrap images, and again after the writer's
// re-certified filter and dripped inner key arrived over the feed. It
// was given no key and no scheme, and none is reachable from its
// followers.
func TestFollowServesCatalog(t *testing.T) {
	s, _ := bootTest(t, "-catalog", "o,i", "-n", "300", "-summary-every", "5")
	beats(t, s, 12)
	n, fls := follow(t, s)
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
	caughtUp(t, s, fls)
	for i, fl := range fls {
		if st := fl.Stats(); st.Bootstraps != 1 || st.Records != 0 {
			t.Fatalf("follower of %q: %+v, want everything from one image", n.f.names[i], st)
		}
	}
	queries("from its bootstrap images")
	beats(t, s, 10) // two period closes: two dripped inner keys, two re-certifications
	caughtUp(t, s, fls)
	if st := fls[1].Stats(); st.Bootstraps != 1 || st.Records == 0 {
		t.Fatalf("inner follower: %+v, want the re-certifications applied off the feed", st)
	}
	if pfc := s.rts[1].QS.Filter(nil); pfc == nil {
		t.Fatal("primary holds no filter for the inner relation")
	} else if ffc := fls[1].QS().Filter(nil); ffc == nil || ffc.TS != pfc.TS {
		t.Fatalf("follower's filter %+v, primary's certified at %d", ffc, pfc.TS)
	}
	queries("after re-certifications over the feed")

	keys := []reflect.Type{
		reflect.TypeOf(&xortest.PrivateKey{}), reflect.TypeOf(&xortest.PublicKey{}),
		reflect.TypeOf(&bas.PrivateKey{}), reflect.TypeOf(&bas.PublicKey{}),
		reflect.TypeOf(&crsa.PrivateKey{}),
	}
	if got := reachable(s.rts[0].DA, keys); len(got) == 0 {
		t.Fatal("no key reachable from the primary's owner: the walk sees nothing")
	}
	for i, fl := range fls {
		// The follower's server sits behind an atomic pointer, which the
		// walk cannot follow: it is a root of its own.
		if got := reachable([]any{fl, fl.QS()}, keys); len(got) != 0 {
			t.Errorf("follower of %q reaches %v", n.f.names[i], got)
		}
	}
}

// reachable returns the types among want of every value reachable from
// root — through pointers, interfaces, structs, slices, arrays and maps,
// unexported fields included.
func reachable(root any, want []reflect.Type) []reflect.Type {
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := map[visit]bool{}
	var found []reflect.Type
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !v.IsValid() {
			return
		}
		if slices.Contains(want, v.Type()) && !slices.Contains(found, v.Type()) {
			found = append(found, v.Type())
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			walk(v.Elem())
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
				return // no pointer inside
			}
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// TestFollowTakesNoKeyOrScheme: the replica's command line has no key
// material and no scheme to give.
func TestFollowTakesNoKeyOrScheme(t *testing.T) {
	for _, args := range [][]string{{"-keyseed", "t"}, {"-scheme", "xortest"}} {
		if _, err := parseFlags("follow", args); err == nil {
			t.Errorf("follow accepted %v", args)
		}
	}
}

// TestCRSAFleet: under condensed RSA — whose aggregation needs the
// signer's modulus — the real client verifies the primary's answers
// with the key it derives from -keyseed, and a follower given no key and
// no scheme serves a BF join with a projection that verifies too: its
// servers aggregate under the modulus their images carry.
func TestCRSAFleet(t *testing.T) {
	s, _ := bootTest(t, "-scheme", "crsa", "-catalog", "o,i", "-n", "90", "-summary-every", "3")
	beats(t, s, 4)
	bf := []string{"-join", "i", "-method", "bf", "-attrs", "0", "-lo", "100", "-hi", "700"}
	if err := clientQueryUnder("crsa", s.node, "-lo", "0", "-hi", "900"); err != nil {
		t.Fatalf("range on the crsa primary: %v", err)
	}
	if err := clientQueryUnder("crsa", s.node, bf...); err != nil {
		t.Fatalf("BF join on the crsa primary: %v", err)
	}
	n, fls := follow(t, s)
	caughtUp(t, s, fls)
	if err := clientQueryUnder("crsa", n, bf...); err != nil {
		t.Fatalf("BF join with a projection on the keyless crsa follower: %v", err)
	}
	beats(t, s, 3) // a period close and a re-certified filter over the feed
	caughtUp(t, s, fls)
	if err := clientQueryUnder("crsa", n, bf...); err != nil {
		t.Fatalf("BF join on the crsa follower after the feed moved: %v", err)
	}
}

// TestRecoverRefusesAnotherScheme: a durable relation's snapshot is bound
// to the scheme it was written under; booting the directory under
// another scheme is refused, not served.
func TestRecoverRefusesAnotherScheme(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-n", "60", "-data", dir, "-snap-every", "0"}
	_, stop := bootTest(t, args...) // the boot writes each relation's first snapshot
	stop()
	f, err := parseFlags("serve", append([]string{"-addr", "127.0.0.1:0", "-scheme", "bas", "-update-every", "0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	s, err := bootPrimary(f)
	if err == nil {
		s.close()
		t.Fatal("a snapshot written under xortest was recovered under bas")
	}
	if !strings.Contains(err.Error(), "bound to") {
		t.Fatalf("refused with %v, want the binding named", err)
	}
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
