package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/faultnet"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// fleetFixture boots one loaded system behind several independent
// NetServers — the replicas of a fleet, all serving identical state.
func fleetFixture(t *testing.T, n, replicas int) (*core.Relation, []int64, []string, []*server.NetServer) {
	t.Helper()
	sys := newRelation(t, xortest.New())
	recs := workload.Records(workload.Config{N: n, RecLen: 64, Seed: 3})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, replicas)
	srvs := make([]*server.NetServer, replicas)
	for i := range srvs {
		srv := server.NewNetServer(sys.QS, server.NetConfig{})
		ln, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		addrs[i] = ln.Addr().String()
		srvs[i] = srv
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return sys, keys, addrs, srvs
}

func fleetRetry() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// TestFleetFailoverOnDeadReplica: killing the connected replica
// mid-session moves the next query to a healthy one, re-anchored and
// fully verified.
func TestFleetFailoverOnDeadReplica(t *testing.T) {
	sys, keys, addrs, srvs := fleetFixture(t, 200, 3)
	cl, err := client.DialFleet(addrs, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub, Retry: fleetRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatal(err)
	}
	if got := cl.CurrentAddr(); got != addrs[0] {
		t.Fatalf("connected to %s, want the first replica %s", got, addrs[0])
	}
	// Kill the connected replica outright.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvs[0].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatalf("query after replica death: %v", err)
	}
	st := cl.Stats()
	if st.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", st)
	}
	if got := cl.CurrentAddr(); got == addrs[0] {
		t.Fatal("session still attributed to the dead replica")
	}
}

// TestFleetFailoverWithinMaxElapsed is the satellite scenario: the
// primary's network path goes dark (connections die, new ones hang off
// a dead upstream), and a client with a total-elapsed retry budget
// fails over to the live replica well inside it.
func TestFleetFailoverWithinMaxElapsed(t *testing.T) {
	sys, keys, addrs, _ := fleetFixture(t, 200, 2)
	proxy, err := faultnet.NewProxy(addrs[0], faultnet.Profile{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	fleet := []string{proxy.Addr(), addrs[1]}
	budget := 2 * time.Second
	cl, err := client.DialFleet(fleet, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: 200 * time.Millisecond,
		Retry: client.RetryPolicy{
			MaxAttempts: 1000, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, MaxElapsed: budget,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatal(err)
	}
	// Partition the primary: sever live pipes and point new ones at a
	// dead upstream.
	proxy.SetUpstream("127.0.0.1:1")
	proxy.DropAll()
	start := time.Now()
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatalf("query during primary partition: %v", err)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Fatalf("failover took %v, over the %v budget", elapsed, budget)
	}
	if st := cl.Stats(); st.Failovers == 0 {
		t.Fatalf("partition never triggered a failover: %+v", st)
	}
}

// TestMaxElapsedBoundsRetries: with every server unreachable, the
// retry loop gives up once the elapsed budget is spent — not after
// MaxAttempts-worth of unbounded backoff.
func TestMaxElapsedBoundsRetries(t *testing.T) {
	sys, keys, addrs, _ := fleetFixture(t, 100, 1)
	proxy, err := faultnet.NewProxy(addrs[0], faultnet.Profile{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	budget := 300 * time.Millisecond
	cl, err := client.Dial(proxy.Addr(), client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		DialTimeout:    100 * time.Millisecond,
		RequestTimeout: 100 * time.Millisecond,
		Retry: client.RetryPolicy{
			MaxAttempts: 1 << 20, BaseDelay: time.Millisecond,
			MaxDelay: 20 * time.Millisecond, MaxElapsed: budget,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	proxy.SetUpstream("127.0.0.1:1")
	proxy.DropAll()
	start := time.Now()
	_, err = cl.QueryPlan(leaf(keys[0], keys[10]))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a dead server succeeded")
	}
	// Allow the in-flight attempt at the budget's edge to finish.
	if slack := budget + 500*time.Millisecond; elapsed > slack {
		t.Fatalf("retry loop ran %v, budget was %v", elapsed, budget)
	}
}

// TestFleetQuarantineOnTamper: a replica caught serving forged
// signatures is quarantined for the session and the query completes —
// verified — on an honest replica. The condemned replica is attributed
// by address and never dialed again.
func TestFleetQuarantineOnTamper(t *testing.T) {
	sys, keys, addrs, _ := fleetFixture(t, 200, 2)
	byz := newTamperSrv(t, addrs[0])
	byz.Forge(tamperSigFlip)
	fleet := []string{byz.Addr(), addrs[1]}
	cl, err := client.DialFleet(fleet, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub, Retry: fleetRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatalf("query with one Byzantine replica: %v", err)
	}
	st := cl.Stats()
	if st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1 (%+v)", st.Quarantines, st)
	}
	quar := cl.Quarantined()
	cause, ok := quar[byz.Addr()]
	if !ok {
		t.Fatalf("quarantine list %v misses the Byzantine replica %s", quar, byz.Addr())
	}
	if !errors.Is(cause, sigagg.ErrVerify) {
		t.Fatalf("quarantine evidence = %v, want a verification failure", cause)
	}
	if got := cl.CurrentAddr(); got != addrs[1] {
		t.Fatalf("session on %s, want the honest replica %s", got, addrs[1])
	}
	// Once every replica is condemned, the session refuses to proceed.
	cl2, err := client.DialFleet([]string{byz.Addr()}, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub, Retry: fleetRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.QueryPlan(leaf(keys[0], keys[30])); err == nil {
		t.Fatal("lone Byzantine replica's answer accepted")
	}
}

// TestFleetReconnectReadmitsQuarantined: an explicit Reconnect is the
// operator override — it re-admits a quarantined replica, and the
// divergence/verification machinery still guards the re-entry.
func TestFleetReconnectReadmitsQuarantined(t *testing.T) {
	sys, keys, addrs, _ := fleetFixture(t, 200, 2)
	byz := newTamperSrv(t, addrs[0])
	byz.Forge(tamperSigFlip)
	fleet := []string{byz.Addr(), addrs[1]}
	cl, err := client.DialFleet(fleet, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub, Retry: fleetRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatal(err)
	}
	if len(cl.Quarantined()) != 1 {
		t.Fatal("fixture: tampering replica was not quarantined")
	}
	byz.Forge(nil) // the operator "fixed" it
	if err := cl.Reconnect(byz.Addr()); err != nil {
		t.Fatalf("reconnect to repaired replica: %v", err)
	}
	if len(cl.Quarantined()) != 0 {
		t.Fatal("explicit reconnect did not lift the quarantine")
	}
	if _, err := cl.QueryPlan(leaf(keys[0], keys[30])); err != nil {
		t.Fatalf("query after re-admission: %v", err)
	}
	if got := cl.CurrentAddr(); got != byz.Addr() {
		t.Fatalf("session on %s after explicit reconnect to %s", got, byz.Addr())
	}
}

// TestFleetRefusesUncarriablePlan: a spec the plan encoding cannot carry
// exactly — a slot past 2^32 would go out as another slot, a relation name
// past 256 bytes is one every server refuses — is the caller's mistake.
// It fails as ErrConfig before anything is sent, so no honest replica is
// asked, let alone blamed and quarantined for answering what it was sent.
func TestFleetRefusesUncarriablePlan(t *testing.T) {
	fx := newPlanFixture(t)
	srvs := make([]*server.NetServer, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i], addrs[i] = fx.listen(t, server.NetConfig{})
	}
	cl, err := client.DialFleet(addrs, client.Config{
		Scheme: fx.newScheme(), Pub: fx.outer.Pub, Relations: fx.relationKeys(), Retry: fleetRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryPlan(fx.spec(join.BF, []int{1})); err != nil {
		t.Fatal(err)
	}
	sent := func() (n [2]uint64) {
		for i, srv := range srvs {
			n[i] = srv.Stats().Requests[wire.KindPlan]
		}
		return n
	}
	before := sent()
	long := strings.Repeat("o", 257)
	bad := map[string]*query.Spec{
		"long relation":       {Rel: long, Lo: 105, Hi: 695},
		"long inner relation": {Rel: "o", Lo: 105, Hi: 695, Join: &query.JoinSpec{Rel: long, Method: join.BV}},
	}
	top := ^uint32(0)
	if slot := int(top) + 2; slot != 1 { // 2^32 + 1 where int is 64 bits wide
		bad["slot past 2^32"] = &query.Spec{Rel: "o", Lo: 105, Hi: 695, Attrs: []int{slot}}
	}
	for name, spec := range bad {
		if _, err := cl.QueryPlan(spec); !errors.Is(err, client.ErrConfig) {
			t.Errorf("%s: %v, want ErrConfig", name, err)
		}
	}
	if after := sent(); after != before {
		t.Errorf("plan requests per replica %v → %v: a refused spec reached a server", before, after)
	}
	if st := cl.Stats(); st.Quarantines != 0 {
		t.Errorf("%d honest replicas quarantined", st.Quarantines)
	}
}
