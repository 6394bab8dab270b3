package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at the -short sizes, two of
// them traced: every operation must succeed (each counted answer is
// client-verified, every durable write is read back after the restart)
// and every metric the contract promises must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			traced := w.Name == "hot_range" || w.Name == "plan_join"
			cfg := newRunConfig(&w, 1, 1, traced, true, t.TempDir())
			cfg.window = smokeWindow * time.Second
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.notes)
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", m.Name, v)
				}
			}
			if !traced {
				return
			}
			for _, m := range perLayer {
				if _, ok := res.layer[m.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				}
			}
			if plans := res.layer["query.execute_us_p50"]; (plans > 0) != w.Plan {
				t.Errorf("query.* must be non-zero on plan_join only; got %v on %s", plans, w.Name)
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json and
// the program's own metric and workload tables identical, and inside the
// limits the driver enforces.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("../BENCHMARK.json"); err == nil {
		var g, w any
		if err := json.Unmarshal(got, &g); err != nil {
			t.Fatalf("../BENCHMARK.json: %v", err)
		}
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("../BENCHMARK.json differs from spec.go; it should hold:\n%s", want)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or duplicate name/unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
	}
	if !seen["setup_s"] || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s missing or too many metrics (%d, %d)", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name or %d-character why", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
}

// benchmarkJSON renders the repository's BENCHMARK.json from the tables in
// spec.go, so the file and the program cannot drift apart.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricSpec  `json:"end_to_end"`
		PerLayer   []metricSpec  `json:"per_layer"` // zero bounds are omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
