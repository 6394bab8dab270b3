package main

// workloadDef is one traffic mix. Every workload runs the same load shape
// (two closed-loop verifying readers, one open-loop paced writer); what
// differs is which layers the requests reach.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Plan       bool    `json:"-"` // two-relation catalog driven through Client.QueryPlan
	N          int     `json:"-"` // records (outer relation for a plan workload)
	Ranges     int     `json:"-"` // shared request catalog size; 0 = never-repeating uniform ranges
	Rows       int     `json:"-"` // mean rows selected per request
	UpdateRate float64 `json:"-"` // writer pace, operations per second
}

// Defaults sized so that 4 + 22×4 driver runs fit the driver's time cap
// on two cores (see README, "Sizes").
const (
	defaultN     = 20_000
	defaultPlanN = 3_000
	recLen       = 512
	zipfTheta    = 1.07
	pipeline     = 8  // ranges pipelined per QueryBatch
	readers      = 2  // closed-loop client connections
	periodEvery  = 25 // the writer closes a ρ-period every k updates
	subWindows   = 6
	joinEvery    = 3 // the inner relation holds every 3rd outer key
	filterBits   = 2 // Bloom bits per key: low on purpose, so BV fallbacks are hot
)

var workloads = []workloadDef{
	{
		Name: "hot_range",
		Why:  "zipf over 512 shared 50-row ranges: working set fits the answer cache, so the client's decode + hash-to-curve + EC verify is most of the work",
		N:    defaultN, Ranges: 512, Rows: 50, UpdateRate: 100,
	},
	{
		Name: "cold_scan",
		Why:  "uniformly placed ~100-row ranges that never repeat: answer cache bypassed (<5% hits), every answer pays B+-tree descent, aggtree aggregation and wire encode",
		N:    defaultN, Ranges: 0, Rows: 100, UpdateRate: 100,
	},
	{
		Name: "write_heavy",
		Why:  "hot_range reads against 250 updates/s: signing, WAL and Apply do real work, shard epochs invalidate hot entries, summaries ride every answer, restart replays the tail",
		N:    defaultN, Ranges: 512, Rows: 50, UpdateRate: 250,
	},
	{
		Name: "plan_join",
		Why:  "zipf over 256 select-project-join plans on a two-relation catalog with 100 inner inserts/s: the only workload on the planner / composite-VO / client plan stack",
		Plan: true, N: defaultPlanN, Ranges: 256, Rows: 200, UpdateRate: 100,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported number. Bound (end-to-end only) is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the system sees; the same set on
// every workload. Bounds were chosen from -selfcheck (README): the three
// timings carry the most the driver allows, because ten runs of the same
// code spread up to half of it on this machine; a timing that spreads
// more than that is a per-layer metric instead.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"answers_per_s", "1/s", "higher", 0.25},
	{"answer_p50_us", "us", "lower", 0.25},
	{"wire_bytes_per_answer", "B", "lower", 0.02},
	{"updates_per_s", "1/s", "higher", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are single-layer numbers from the traced run; layer = package
// name. They carry no bound. README lists which end-to-end metric each
// should move, on which workload.
var perLayer = []metricSpec{
	{"btree.range_us_p50", "us", "lower", 0},
	{"aggtree.aggrange_us_p50", "us", "lower", 0},
	{"aggtree.ops_per_range", "count", "lower", 0},
	{"aggtree.upsert_us_p50", "us", "lower", 0},

	{"core.query_us_p50", "us", "lower", 0},
	{"core.query_us_p99", "us", "lower", 0},
	{"core.agg_ops_per_answer", "count", "lower", 0},
	{"core.apply_us_p50", "us", "lower", 0},

	{"anscache.hit_ratio", "ratio", "higher", 0},
	{"anscache.serve_hit_us_p50", "us", "lower", 0},
	{"anscache.serve_build_us_p50", "us", "lower", 0},
	{"anscache.invalidations_per_update", "ratio", "lower", 0},
	{"anscache.coalesced", "count", "higher", 0},
	{"anscache.evictions", "count", "lower", 0},
	{"anscache.resident_mb", "MiB", "lower", 0},

	{"wire.encode_us_p50", "us", "lower", 0},
	{"wire.decode_us_p50", "us", "lower", 0},
	{"wire.bytes_per_row", "B", "lower", 0},
	{"wire.composite_decode_us_p50", "us", "lower", 0},

	{"server.fetch_rtt_us_p50", "us", "lower", 0},
	{"server.bytes_out_per_answer", "B", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},

	{"client.verify_us_p50", "us", "lower", 0},
	{"client.summaries_per_answer", "ratio", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.stale_requeries", "count", "lower", 0},
	{"client.queryplan_us_p50", "us", "lower", 0},
	{"client.answer_p99_us", "us", "lower", 0},

	{"sigagg.h2c_hit_ratio", "ratio", "higher", 0},
	{"sigagg.agg_decode_hit_ratio", "ratio", "higher", 0},
	{"sigagg.fast_verifies", "count", "higher", 0},
	{"sigagg.portable_verifies", "count", "lower", 0},
	{"sigagg.sign_us_p50", "us", "lower", 0},

	{"freshness.ingest_us_p50", "us", "lower", 0},
	{"freshness.summaries_published", "count", "lower", 0},

	{"da.load_s", "s", "lower", 0},
	{"da.update_us_p50", "us", "lower", 0},
	{"da.closeperiod_us_p50", "us", "lower", 0},
	{"da.update_e2e_us_p50", "us", "lower", 0},
	{"da.update_e2e_us_p95", "us", "lower", 0},
	{"da.writer_late_ms_p99", "ms", "lower", 0},

	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.sync_us_p50", "us", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},
	{"wal.snapshot_write_s", "s", "lower", 0},
	{"wal.snapshot_mb", "MiB", "lower", 0},
	{"wal.replayed_msgs", "count", "lower", 0},
	{"wal.restart_s", "s", "lower", 0},

	{"query.plan_us_p50", "us", "lower", 0},
	{"query.execute_us_p50", "us", "lower", 0},
	{"query.serveplan_us_p50", "us", "lower", 0},
	{"query.cache_hit_ratio", "ratio", "higher", 0},
	{"query.join_probes_per_plan", "ratio", "lower", 0},
	{"query.bf_fallback_ratio", "ratio", "lower", 0},

	{"proc.allocs_per_answer", "count", "lower", 0},
	{"proc.alloc_bytes_per_answer", "B", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.machine_speed", "ratio", "higher", 0},
	{"proc.raw_answers_per_s", "1/s", "higher", 0},
	{"proc.raw_answer_p50_us", "us", "lower", 0},
	{"proc.raw_setup_s", "s", "lower", 0},

	{"trace.fetch_self_share", "ratio", "lower", 0},
	{"trace.verify_self_share", "ratio", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// runSeconds is the measured window the driver passes as --seconds.
const runSeconds = 24
