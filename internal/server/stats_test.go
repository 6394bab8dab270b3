package server

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"authdb/internal/query"
)

// scrape fetches the exposition payload and parses it into name→value.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestServeMetricsScrape wires a live server's counters into the text
// endpoint and checks a scrape reflects served traffic.
func TestServeMetricsScrape(t *testing.T) {
	sys, keys, addr, srv, shutdown := newNetFixtureSrv(t, 100, NetConfig{})
	defer shutdown()

	extra := func(m *MetricsBuf) {
		m.Gauge("authdb_test_gauge", "Composed per-process metric.", 42)
	}
	maddr, stop, err := ServeMetrics("127.0.0.1:0", srv.Metrics, extra)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stop(ctx)
	}()

	before := scrape(t, maddr)
	for _, name := range []string{
		"authdb_net_conns_total", `authdb_net_requests_total{kind="P"}`, `authdb_net_requests_total{kind="T"}`,
		"authdb_net_shed_total",
		"authdb_net_repl_streams_total", "authdb_anscache_hits_total",
		"authdb_anscache_rejected_total", "authdb_test_gauge",
	} {
		if _, ok := before[name]; !ok {
			t.Fatalf("scrape missing %s", name)
		}
	}
	if before["authdb_test_gauge"] != 42 {
		t.Fatalf("composed gauge = %g, want 42", before["authdb_test_gauge"])
	}

	// Serve some traffic; the next scrape must move. One range three
	// times: a first sighting the cache refuses, the request that earns it
	// residency, a hit.
	cl := dialTest(t, sys, addr)
	for i := 0; i < 3; i++ {
		if _, err := cl.QueryPlan(leaf(keys[0], keys[20])); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape(t, maddr)
	const plans = `authdb_net_requests_total{kind="P"}`
	if after[plans] < before[plans]+3 {
		t.Fatalf("%s did not advance: %g -> %g", plans, before[plans], after[plans])
	}
	for name, want := range map[string]float64{"authdb_anscache_rejected_total": 1, "authdb_anscache_hits_total": 1, "authdb_anscache_entries": 1} {
		if got := after[name] - before[name]; got != want {
			t.Fatalf("%s moved by %g over one range asked three times, want %g", name, got, want)
		}
	}
	// One sample per request kind the listener serves, and no other.
	requests := 0
	for name := range after {
		if strings.HasPrefix(name, "authdb_net_requests_total") {
			requests++
		}
	}
	if requests != 2 {
		t.Fatalf("%d request-kind samples, want 'P' and 'T'", requests)
	}
	if after["authdb_net_conns_total"] < 1 {
		t.Fatal("conns_total never counted the client")
	}

	// The same listener is the profiling entry point of a serving
	// process: the index lists the runtime's profiles and a named one
	// comes back non-empty.
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile:",
	} {
		resp, err := http.Get("http://" + maddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: status %d, err %v, body lacks %q", path, resp.StatusCode, err, want)
		}
	}
}

// TestCacheSeriesMatch: the engine's one answer cache is exported once,
// by NetServer.Metrics, as the eight authdb_anscache series, each equal
// to its counter in Engine.Stats; QueryMetrics exports no cache series.
func TestCacheSeriesMatch(t *testing.T) {
	sys, keys, addr, srv, shutdown := newNetFixtureSrv(t, 100, NetConfig{})
	defer shutdown()
	cl := dialTest(t, sys, addr)
	for i := 0; i < 3; i++ { // a first sighting, the build that earns residency, a hit
		if _, err := cl.QueryPlans([]*query.Spec{leaf(keys[10], keys[40])}); err != nil {
			t.Fatal(err)
		}
	}
	var net, plan MetricsBuf
	srv.Metrics(&net)
	QueryMetrics(srv.engine())(&plan)
	series := func(m *MetricsBuf, prefix string) map[string]string {
		out := map[string]string{}
		for _, line := range strings.Split(string(m.Bytes()), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, prefix) {
				out[strings.TrimPrefix(name, prefix)] = val
			}
		}
		return out
	}
	got := series(&plan, "authdb_")
	for name := range got {
		if strings.Contains(name, "cache") {
			t.Fatalf("QueryMetrics exports %s; the answer cache is NetServer.Metrics'", name)
		}
	}
	if len(got) == 0 {
		t.Fatal("QueryMetrics exports nothing")
	}
	st := srv.engine().Stats().Cache
	want := map[string]string{
		"hits_total": fmt.Sprint(st.Hits), "built_total": fmt.Sprint(st.Built),
		"coalesced_total": fmt.Sprint(st.Coalesced), "invalidations_total": fmt.Sprint(st.Invalidations),
		"evictions_total": fmt.Sprint(st.Evictions), "rejected_total": fmt.Sprint(st.Rejected),
		"bytes": fmt.Sprint(float64(st.Bytes)), "entries": fmt.Sprint(float64(st.Entries)),
	}
	if got := series(&net, "authdb_anscache_"); !maps.Equal(got, want) || st.Hits != 1 {
		t.Fatalf("answer-cache series %v, engine stats %v", got, want)
	}
}

// TestMetricsBufFormat pins the exposition framing: HELP, TYPE, sample,
// with newlines squeezed out of help text.
func TestMetricsBufFormat(t *testing.T) {
	var m MetricsBuf
	m.Counter("x_total", "multi\nline help", 7)
	m.Gauge("y", "a gauge", 1.5)
	got := string(m.Bytes())
	want := "# HELP x_total multi line help\n# TYPE x_total counter\nx_total 7\n" +
		"# HELP y a gauge\n# TYPE y gauge\ny 1.5\n"
	if got != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Split(line, " "); len(parts) != 2 {
			t.Fatalf("sample line %q not `name value`", line)
		}
	}
}
