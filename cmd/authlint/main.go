// Command authlint runs the authdb invariant suite (bufcustody,
// lockepoch, retryclass, nocachesign, lockblock — see DESIGN.md
// "Invariants & static analysis") over the repository.
//
// Usage:
//
//	authlint [-checkers a,b] [-tests=false] [packages...]   (default ./...)
//
// Exit status: 0 clean, 1 findings, 2 usage/load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"authdb/internal/analysis"
	"authdb/internal/analysis/authlint"
	"authdb/internal/analysis/load"
)

func main() {
	checkers := flag.String("checkers", "", "comma-separated analyzer subset (default: all)")
	tests := flag.Bool("tests", true, "also analyze in-package _test.go files")
	flag.Parse()

	var names []string
	if *checkers != "" {
		names = strings.Split(*checkers, ",")
	}
	analyzers := authlint.ByName(names)
	if len(analyzers) == 0 {
		fmt.Fprintf(os.Stderr, "authlint: no analyzers match %q\n", *checkers)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := load.Repo(".", args, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "authlint: %v\n", err)
		os.Exit(2)
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "authlint: %s: %v\n", pkg.PkgPath, err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "authlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
