// Command authbench regenerates every table and figure of the paper's
// evaluation (Section 5). Each subcommand prints the same rows/series
// the paper reports, alongside the paper's values where they are stated
// numerically, so shape comparisons are direct.
//
// Usage:
//
//	authbench <experiment> [flags]
//
// Experiments: table1 table3 table4 fig4 fig6 fig7 fig8 fig9 fig10
// fig11 all
//
// Absolute numbers depend on the host; the substitutions versus the
// paper's testbed are catalogued in DESIGN.md. This command is the
// paper and nothing else: throughput, latency, bytes and RSS of the
// service are benchmark/run.sh's, and safety, equivalence, chaos and
// fleet checks are go test's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

type experiment struct {
	name string
	desc string
	run  func(args []string) error
}

var experiments = []experiment{
	{"table1", "index height: ASign vs EMB-tree for N = 10k..100M", runTable1},
	{"table3", "costs of cryptographic primitives (BAS, condensed RSA, SHA)", runTable3},
	{"table4", "standalone query/update performance, EMB- vs BAS", runTable4},
	{"fig4", "viable (IA/IB, IB/p) configurations for Bloom-filter joins", runFig4},
	{"fig6", "SigCache: VO construction cost vs cached signature pairs", runFig6},
	{"fig7", "response time vs arrival rate, point ops (sf=1e-6)", runFig7},
	{"fig8", "compressed update summaries: size and signature age vs ρ'", runFig8},
	{"fig9", "response time vs arrival rate, range ops (sf=1e-3)", runFig9},
	{"fig10", "SigCache effectiveness vs cache size, Eager vs Lazy", runFig10},
	{"fig11", "equi-join VO size: BV vs BF across α, m/IB, IB/p, selectivity", runFig11},
}

func main() {
	code := run()
	stopProfiles()
	os.Exit(code)
}

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	name := os.Args[1]
	args := os.Args[2:]
	if name == "all" {
		for _, e := range experiments {
			fmt.Printf("\n================ %s: %s ================\n", e.name, e.desc)
			if err := e.run(nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				return 1
			}
		}
		return 0
	}
	for _, e := range experiments {
		if e.name == name {
			if err := e.run(args); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: authbench <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all      run every experiment with defaults")
}

// benchFlags wraps a FlagSet so every subcommand carries the shared
// profiling flags: Parse starts the CPU profile after the flags are in,
// and main's exit path flushes both profiles.
type benchFlags struct {
	*flag.FlagSet
}

var (
	cpuProfilePath string
	memProfilePath string
	cpuProfileFile *os.File
)

// Parse parses the flags and then starts the requested profiles.
func (f *benchFlags) Parse(args []string) error {
	if err := f.FlagSet.Parse(args); err != nil {
		return err
	}
	if cpuProfilePath != "" && cpuProfileFile == nil {
		fp, err := os.Create(cpuProfilePath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fp); err != nil {
			fp.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		cpuProfileFile = fp
	}
	return nil
}

// stopProfiles flushes the CPU profile and writes the heap profile; it
// runs once on every exit path of main.
func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
		fmt.Fprintf(os.Stderr, "authbench: wrote CPU profile to %s\n", cpuProfilePath)
	}
	if memProfilePath != "" {
		fp, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "authbench: memprofile: %v\n", err)
			return
		}
		defer fp.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.Lookup("heap").WriteTo(fp, 0); err != nil {
			fmt.Fprintf(os.Stderr, "authbench: memprofile: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "authbench: wrote heap profile to %s\n", memProfilePath)
	}
}

// newFlags builds a FlagSet that errors instead of exiting, so `all`
// can pass nil args. Every experiment gets -cpuprofile/-memprofile.
func newFlags(name string) *benchFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&cpuProfilePath, "cpuprofile", "", "write a CPU profile of this run to the given file")
	fs.StringVar(&memProfilePath, "memprofile", "", "write a heap profile on exit to the given file")
	return &benchFlags{FlagSet: fs}
}
