// Command benchmark is the repository's one benchmark: it boots the real
// serving stack the way cmd/authserve does, drives it with verifying
// clients over loopback sockets while an open-loop writer keeps updating,
// restarts it from its write-ahead log, and prints every metric by name.
// See README.md for the workloads, the metrics and how to read them.
//
//	bash benchmark/run.sh                                  all four workloads
//	bash benchmark/run.sh --workload hot_range --seed 3 --seconds 24 --trace 0
//	bash benchmark/run.sh --selfcheck                      two sets of runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (empty = all, one child process each)")
		seed      = flag.Int64("seed", 1, "seed of every generator")
		seconds   = flag.Float64("seconds", runSeconds, "measured window, seconds")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, trace overhead")
		short     = flag.Bool("short", false, "smoke sizes: n = 5000, 1 s window, one recovery")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of ten runs of this binary and compare them against the bounds")
	)
	flag.Parse()
	switch {
	case *selfcheck:
		if err := selfCheck(*seconds); err != nil {
			fatal(err)
		}
	case *name == "":
		if err := runAll(*seed, *seconds, *trace, *short); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		cfg := newRunConfig(w, *seed, *seconds, *trace == 1, *short, outDir)
		printEnvelope(cfg)
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		printReport(cfg, res)
		if !res.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// outDir holds a run's data directory and the trace files.
const outDir = "benchmark/out"

// newRunConfig sizes one run: one set-up in a fresh process (what a user
// of the daemon pays), a 2 s warm-up, the measured window and one verified
// recovery (a traced run times up to three); -short is the smoke shape the
// tests use.
func newRunConfig(w *workloadDef, seed int64, seconds float64, trace, short bool, outDir string) runConfig {
	cfg := runConfig{
		w: w, n: w.N, seed: seed, trace: trace, outDir: outDir,
		window: time.Duration(seconds * float64(time.Second)),
		warm:   2 * time.Second, recoveries: 1, replay: 2000,
	}
	if w.Plan {
		cfg.replay = 200
	}
	if trace {
		cfg.recoveries = 3 // wal.restart_s is their median
	}
	if short {
		cfg.n = 5000
		if w.Plan {
			cfg.n = 1200
		}
		cfg.window, cfg.warm = time.Second, 300*time.Millisecond
		cfg.recoveries, cfg.replay = 1, cfg.replay/10
	}
	return cfg
}

// gitSHA is the revision the binary was built from, when the build saw one.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printEnvelope records what was run, on what.
func printEnvelope(cfg runConfig) {
	env := map[string]any{
		"benchmark": "authdb/benchmark", "workload": cfg.w.Name, "why": cfg.w.Why,
		"seed": cfg.seed, "git_sha": gitSHA(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "scheme": "bas", "n": cfg.n, "record_bytes": recLen,
		"window_s": cfg.window.Seconds(), "warmup_s": cfg.warm.Seconds(), "trace": cfg.trace,
		"readers": readers, "pipeline": pipeline, "writer_per_s": cfg.w.UpdateRate,
	}
	b, _ := json.Marshal(env)
	fmt.Printf("envelope %s\n", b)
}

// printReport prints every metric by name with its unit, then — as the
// last line — the result object the driver reads: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func printReport(cfg runConfig, res *result) {
	for _, note := range res.notes {
		fmt.Println("note", note)
	}
	for _, m := range endToEnd {
		fmt.Printf("%-12s %-34s %14.4f %-6s (%s is better, bound %.2f)\n", cfg.w.Name, m.Name, res.e2e[m.Name], m.Unit, m.Better, m.Bound)
	}
	specs, values := endToEnd, res.e2e
	if cfg.trace {
		specs, values = perLayer, res.layer
		for _, m := range perLayer {
			fmt.Printf("%-12s %-34s %14.4f %-6s\n", cfg.w.Name, m.Name, res.layer[m.Name], m.Unit)
		}
		fmt.Printf("%-12s %-24s %8s %12s %12s\n", cfg.w.Name, "span", "count", "total_ms", "self_ms")
		for _, lt := range res.selfTimes {
			fmt.Printf("%-12s %-24s %8d %12.2f %12.2f\n", cfg.w.Name, lt.Name, lt.Count,
				float64(lt.Total.Microseconds())/1e3, float64(lt.Self.Microseconds())/1e3)
		}
	}
	out := resultLine{res.correct(), res.attempted, res.failed, map[string]metricValue{}}
	for _, m := range specs {
		out.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Printf("%s\n", b)
}

// resultLine is the last stdout line of a run: what the driver reads, and
// what -selfcheck reads back from its child runs.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs this binary on one workload in a process of its own —
// peak RSS and the scheme's process-wide caches are per process — and
// parses its result line. echo passes the child's report through.
func runChild(name string, seed int64, seconds float64, trace int, short bool, echo bool) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace)}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	last := out
	for i := len(out) - 2; i >= 0; i-- {
		if out[i] == '\n' {
			last = out[i+1:]
			break
		}
	}
	var cr resultLine
	if err := json.Unmarshal(last, &cr); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &cr, nil
}

// runAll runs every workload once and fails if any operation failed.
func runAll(seed int64, seconds float64, trace int, short bool) error {
	failed := 0
	for _, w := range workloads {
		cr, err := runChild(w.Name, seed, seconds, trace, short, true)
		if err != nil {
			return err
		}
		failed += cr.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfcheckRuns is the size of each of -selfcheck's two sets: the driver's
// ten, so that the spreads are the ones the driver will compute.
const selfcheckRuns = 10

// selfCheck runs two sets of runs of the same binary and compares them
// the way the driver compares a change with its parent: per workload and
// end-to-end metric, both medians, both interquartile spreads as a share
// of the median, and how much worse the second median is than the first.
// Any spread (setup_s excepted) or disagreement beyond the metric's bound
// is a failure; one beyond half the bound is flagged for attention.
func selfCheck(seconds float64) error {
	type key struct{ w, m string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		for _, w := range workloads {
			for r := 0; r < selfcheckRuns; r++ {
				cr, err := runChild(w.Name, int64(1+r), seconds, 0, false, false)
				if err != nil {
					return err
				}
				if !cr.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, 1+r, cr.Failed, cr.Attempted)
				}
				for name, v := range cr.Metrics {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d:", set+1, w.Name, 1+r)
				for _, m := range endToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.5g", m.Name, cr.Metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	fmt.Printf("| workload | metric | median A | median B | spread A | spread B | B worse by | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			sa, sb := spread(a), spread(b)
			worse := worseBy(m.Better, median(a), median(b))
			flag := ""
			switch worst := max(worse, spreadFor(m, sa), spreadFor(m, sb)); {
			case worst > m.Bound:
				flag = "FAIL"
				bad++
			case worst > m.Bound/2:
				flag = "above half"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, median(a), median(b), 100*sa, 100*sb, 100*worse, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload × metric pairs outside their bound", bad)
	}
	return nil
}

// spreadFor is the spread the bound applies to: the driver does not hold
// setup_s's spread against it, only its median.
func spreadFor(m metricSpec, s float64) float64 {
	if m.Name == "setup_s" {
		return 0
	}
	return s
}
