package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"authdb/internal/query"
	"authdb/internal/wal"
	"authdb/internal/wire"
)

// MetricsBuf accumulates metrics in the Prometheus text exposition
// format (version 0.0.4): one # HELP line, one # TYPE line, then the
// sample, per metric. Plain text on purpose — any scraper, curl, or
// grep can read it, and the server takes on no client-library
// dependency.
type MetricsBuf struct {
	b bytes.Buffer
}

func (m *MetricsBuf) emit(name, help, typ string, value string) {
	// HELP text is a single line by format rules.
	help = strings.ReplaceAll(help, "\n", " ")
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, value)
}

// Counter emits a monotonically increasing sample.
func (m *MetricsBuf) Counter(name, help string, v uint64) {
	m.emit(name, help, "counter", fmt.Sprintf("%d", v))
}

// Gauge emits a point-in-time sample.
func (m *MetricsBuf) Gauge(name, help string, v float64) {
	m.emit(name, help, "gauge", fmt.Sprintf("%g", v))
}

// PerRel emits one metric of the given type ("counter" or "gauge") with a
// sample per relation, labelled rel: value(i) is rels[i]'s.
func (m *MetricsBuf) PerRel(name, help, typ string, rels []string, value func(i int) uint64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i, rel := range rels {
		fmt.Fprintf(&m.b, "%s{rel=%q} %d\n", name, rel, value(i))
	}
}

// Bytes returns the accumulated exposition payload.
func (m *MetricsBuf) Bytes() []byte { return m.b.Bytes() }

// MetricFn contributes one component's metrics to a scrape. Each
// scrape calls every registered fn against a fresh buffer, so samples
// are always current — there is no metrics cache to go stale.
type MetricFn func(*MetricsBuf)

// Metrics emits the server's network counters and its engine's answer
// cache, which serves the scans and plans of every relation.
func (s *NetServer) Metrics(m *MetricsBuf) {
	st := s.Stats()
	m.Counter("authdb_net_conns_total", "Connections accepted.", st.Conns)
	// One sample per request kind, labelled with its row of the protocol
	// table.
	fmt.Fprintf(&m.b, "# HELP authdb_net_requests_total Request frames served, by frame kind.\n# TYPE authdb_net_requests_total counter\n")
	for _, row := range wire.Kinds {
		if n, ok := st.Requests[row.Kind]; ok {
			fmt.Fprintf(&m.b, "authdb_net_requests_total{kind=%q} %d\n", string(row.Kind), n)
		}
	}
	m.Counter("authdb_net_errors_total", "Error responses sent.", st.Errors)
	m.Counter("authdb_net_shed_total", "Requests rejected by admission control.", st.Shed)
	m.Counter("authdb_net_queued_total", "Requests that waited in the admission queue.", st.Queued)
	m.Counter("authdb_net_malformed_total", "Connections dropped for unparseable frames.", st.Malformed)
	m.Counter("authdb_net_bytes_out_total", "Response payload bytes written.", st.BytesOut)
	m.Counter("authdb_net_repl_streams_total", "Replication subscriptions accepted.", st.ReplStreams)

	var qs query.Stats
	if eng := s.engine(); eng != nil {
		qs = eng.Stats()
	}
	cs := qs.Cache
	m.Counter("authdb_anscache_hits_total", "Answer-cache lookups served from a resident entry.", cs.Hits)
	m.Counter("authdb_anscache_built_total", "Answer-cache build functions executed.", cs.Built)
	m.Counter("authdb_anscache_coalesced_total", "Answer-cache callers who shared another's flight.", cs.Coalesced)
	m.Counter("authdb_anscache_invalidations_total", "Answer-cache entries dropped on a stale stamp.", cs.Invalidations)
	m.Counter("authdb_anscache_evictions_total", "Answer-cache entries dropped by the size bound.", cs.Evictions)
	m.Counter("authdb_anscache_rejected_total", "Answer-cache builds served but not made resident: first sightings, the frequency bias, oversize.", cs.Rejected)
	m.Gauge("authdb_anscache_bytes", "Resident answer-cache bytes: each entry is charged its answer's length plus bookkeeping.", float64(cs.Bytes))
	m.Gauge("authdb_anscache_entries", "Resident answer-cache entries.", float64(cs.Entries))
	m.Counter("authdb_query_unchanged_total", "Plan requests naming a held answer the current one equals, answered with the summary tails alone.", qs.Unchanged)
}

// QueryMetrics adapts the plan engine's execution counters for a
// scrape: plan executions, join scan traffic (including the Bloom
// negative/fallback split §3.5) and projected rows. Its answer cache is
// NetServer.Metrics'.
func QueryMetrics(eng *query.Engine) MetricFn {
	return func(m *MetricsBuf) {
		qs := eng.Stats()
		m.Counter("authdb_query_plans_total", "Plans executed, bare scans included (cache hits excluded).", qs.PlanQueries)
		m.Counter("authdb_query_stamp_shards_total", "Inner-relation data shards stamped by executed join plans (per plan: what one inner update can invalidate).", qs.StampShards)
		m.Counter("authdb_query_join_probes_total", "Range scans issued against inner relations (one per run of join keys shipped).", qs.JoinProbes)
		m.Counter("authdb_query_bf_probes_total", "Outer keys probed through a certified Bloom filter.", qs.BFProbes)
		m.Counter("authdb_query_bf_negatives_total", "Outer keys a filter negative alone answered (no run covers them).", qs.BFNegatives)
		m.Counter("authdb_query_bf_fallbacks_total", "Bloom false positives: keys the filter admitted that their run holds no record for.", qs.BFFallbacks)
		m.Counter("authdb_query_proj_rows_total", "Projected rows emitted.", qs.ProjRows)
	}
}

// WalMetrics adapts every relation's write-ahead log positions for a
// scrape, one sample per relation under a rel label.
func WalMetrics(logs map[string]*wal.Log) MetricFn {
	rels := make([]string, 0, len(logs))
	for rel := range logs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return func(m *MetricsBuf) {
		for _, g := range []struct {
			name, help string
			lsn        func(*wal.Log) uint64
		}{
			{"authdb_wal_last_lsn", "Last LSN appended to the write-ahead log.", (*wal.Log).LastLSN},
			{"authdb_wal_durable_lsn", "Last fsynced LSN.", (*wal.Log).DurableLSN},
			{"authdb_wal_first_lsn", "First LSN still held by the log (0 = empty).", (*wal.Log).FirstLSN},
		} {
			m.PerRel(g.name, g.help, "gauge", rels, func(i int) uint64 { return g.lsn(logs[rels[i]]) })
		}
	}
}

// ServeMetrics exposes the composed metric fns over HTTP at addr
// (GET /metrics, with / aliased for convenience) and the runtime's
// profiles under /debug/pprof/ — the way to profile a serving process:
// `go tool pprof http://<addr>/debug/pprof/profile?seconds=10`. It
// returns the bound address — pass ":0" for an ephemeral port — and a
// shutdown func. Observability is a side channel: nothing served here is
// authenticated, and clients must never treat it as a substitute for
// the verified answer path.
func ServeMetrics(addr string, fns ...MetricFn) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	handler := func(w http.ResponseWriter, r *http.Request) {
		var m MetricsBuf
		for _, fn := range fns {
			fn(&m)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(m.Bytes())
	}
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Shutdown, nil
}
