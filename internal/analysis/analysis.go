// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver contract: an Analyzer
// inspects one type-checked package and reports Diagnostics. The repo
// cannot vendor x/tools, so the six authlint analyzers (bufcustody,
// lockepoch, retryclass, nocachesign, lockblock, benchpin) are written against
// this shim instead; the API is kept shape-compatible so they could be
// ported to the real framework by changing imports.
//
// Suppression: a finding whose line (or the line directly above it)
// carries a comment of the form
//
//	//authlint:ignore <analyzer>[,<analyzer>...] <justification>
//
// is dropped, but only when a non-empty justification is present —
// an unexplained ignore is itself reported. The related directive
// //authlint:locked (see lockepoch) marks functions whose caller is
// documented to hold the relevant lock.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and ignore directives.
	Name string
	// Doc is a one-paragraph description; the first line is a summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. Use Reportf for convenience.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by Run
}

// NewInfo returns a types.Info with every map the analyzers rely on
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies every analyzer to the package and returns the surviving
// diagnostics (ignore directives applied) sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = applyIgnores(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreDirective is one parsed //authlint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool
	justified bool
	pos       token.Pos
	used      bool
}

// applyIgnores drops diagnostics suppressed by justified ignore
// directives on the same or preceding line, and reports directives
// that are malformed (no justification).
func applyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	// byLine maps file -> line -> directive.
	byLine := make(map[string]map[int]*ignoreDirective)
	var all []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "authlint:ignore") {
					continue
				}
				rest := strings.TrimPrefix(text, "authlint:ignore")
				fields := strings.Fields(rest)
				d := &ignoreDirective{analyzers: make(map[string]bool), pos: c.Pos()}
				if len(fields) > 0 {
					for _, n := range strings.Split(fields[0], ",") {
						d.analyzers[n] = true
					}
					d.justified = len(fields) > 1
				}
				pos := fset.Position(c.Pos())
				m := byLine[pos.Filename]
				if m == nil {
					m = make(map[int]*ignoreDirective)
					byLine[pos.Filename] = m
				}
				m[pos.Line] = d
				all = append(all, d)
			}
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		dir := byLine[pos.Filename][pos.Line]
		if dir == nil {
			// A directive on its own line suppresses the line below it.
			dir = byLine[pos.Filename][pos.Line-1]
		}
		if dir != nil && dir.analyzers[d.Analyzer] {
			dir.used = true
			if dir.justified {
				continue
			}
			d.Message += " (authlint:ignore rejected: no justification given)"
		}
		out = append(out, d)
	}
	for _, dir := range all {
		if !dir.justified && !dir.used {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Message:  "authlint:ignore directive without a justification",
				Analyzer: "authlint",
			})
		}
	}
	return out
}

// HasDirective reports whether the doc comment of the declaration
// carries //authlint:<name> (e.g. //authlint:locked). Used by
// analyzers whose invariants are established by a documented caller.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "authlint:"+name || strings.HasPrefix(text, "authlint:"+name+" ") {
			return true
		}
	}
	return false
}
