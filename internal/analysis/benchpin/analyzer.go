// Package benchpin (in analyzer.go: a file named benchpin.go is what it
// checks for) implements the authlint analyzer keeping the names
// pinned for the frozen benchmark from becoming a second path again.
// benchmark/ is its own module and compiles against exported names the
// service no longer needs; each lives, as a thin wrapper over the one
// path, in a file named benchpin.go in its package. Only benchmark/ and
// tests may use them: a reference from any other file of the module to
// an object declared in a benchpin.go file is reported. A benchpin.go
// file may use its own names.
package benchpin

import (
	"go/ast"
	"path/filepath"
	"strings"

	"authdb/internal/analysis"
)

// Analyzer is the benchpin pass.
var Analyzer = &analysis.Analyzer{
	Name: "benchpin",
	Doc:  "check that no non-test file uses a name declared in a benchpin.go file (the wrappers only benchmark/ compiles against)",
	Run:  run,
}

// pinFile names the files that hold the pinned names.
const pinFile = "benchpin.go"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if name == pinFile || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !obj.Pos().IsValid() {
				return true
			}
			if at := pass.Fset.Position(obj.Pos()); filepath.Base(at.Filename) == pinFile {
				pass.Reportf(id.Pos(), "%s is pinned for benchmark/ only (%s:%d): use the path it wraps",
					obj.Name(), filepath.Join(filepath.Base(filepath.Dir(at.Filename)), pinFile), at.Line)
			}
			return true
		})
	}
	return nil
}
