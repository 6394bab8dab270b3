// Package nocachesign implements the authlint analyzer keeping the
// signer/verifier separation of the PR 8 BAS fast path honest: signing
// (Sign, SignBatch) and proof construction (AggregateInto, Add, Remove
// and the sigagg.Folder methods Prepare, NewSum, Fold, Merge, Reset,
// Encode) must never reach the verification caches (the digest→point
// cache `cache` and the per-public-key precomputation tables `tables`).
// If signer-side work warmed or read those caches, the verification
// benchmarks would be measuring signer state, and —
// worse — proof construction sweeping millions of leaf signatures would
// thrash a cache sized for the verifier's working set and evict what a
// verifier sharing the instance wants.
//
// The check is a static intra-package call-graph reachability: from
// each entry point (matched by name, on any receiver), any path (direct
// calls, one package deep) to a function whose body touches the
// cache/tables fields is reported with the offending call chain. The
// analyzer applies only to packages named "bas".
package nocachesign

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"authdb/internal/analysis"
	"authdb/internal/analysis/astutil"
)

// Analyzer is the nocachesign pass.
var Analyzer = &analysis.Analyzer{
	Name: "nocachesign",
	Doc:  "check that signing and proof construction (Sign/SignBatch/AggregateInto/Add/Remove and the Folder methods) never reach the verifier caches or per-key tables",
	Run:  run,
}

// entryPoints are the signing and proof-construction functions under
// the no-cache contract.
var entryPoints = map[string]bool{
	"Sign": true, "SignBatch": true,
	"AggregateInto": true, "Add": true, "Remove": true,
	"Prepare": true, "NewSum": true, "Fold": true, "Merge": true, "Reset": true, "Encode": true,
}

// cacheFields are the verifier-state fields signers must not touch.
var cacheFields = []string{"cache", "tables"}

type funcNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	callees []*types.Func
	// touch is the position of a direct cache/tables access, if any.
	touch token.Pos
}

func run(pass *analysis.Pass) error {
	if astutil.PkgBase(pass.Pkg) != "bas" {
		return nil
	}
	nodes := make(map[*types.Func]*funcNode)
	for _, f := range pass.Files {
		for _, fu := range astutil.Functions(f) {
			obj, ok := pass.TypesInfo.Defs[fu.Decl.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &funcNode{fn: obj, decl: fu.Decl}
			ast.Inspect(fu.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if callee := astutil.Callee(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
						node.callees = append(node.callees, callee)
					}
				case *ast.SelectorExpr:
					if node.touch == token.NoPos {
						if _, ok := astutil.SelectsField(pass.TypesInfo, n, cacheFields...); ok {
							node.touch = n.Pos()
						}
					}
				}
				return true
			})
			nodes[obj] = node
		}
	}

	for _, f := range pass.Files {
		for _, fu := range astutil.Functions(f) {
			obj, ok := pass.TypesInfo.Defs[fu.Decl.Name].(*types.Func)
			if !ok || !entryPoints[obj.Name()] {
				continue
			}
			if chain := reach(nodes, obj, map[*types.Func]bool{}); chain != nil {
				names := make([]string, len(chain))
				for i, fn := range chain {
					names[i] = fn.Name()
				}
				last := nodes[chain[len(chain)-1]]
				pass.Reportf(fu.Decl.Name.Pos(),
					"signer entry point reaches verifier cache state: %s touches %s (signer work must never warm or read verification caches)",
					strings.Join(names, " → "), pass.Fset.Position(last.touch))
			}
		}
	}
	return nil
}

// reach returns the call chain (starting at fn) to the first function
// that directly touches cache state, or nil.
func reach(nodes map[*types.Func]*funcNode, fn *types.Func, seen map[*types.Func]bool) []*types.Func {
	if seen[fn] {
		return nil
	}
	seen[fn] = true
	node := nodes[fn]
	if node == nil {
		return nil
	}
	if node.touch != token.NoPos {
		return []*types.Func{fn}
	}
	for _, callee := range node.callees {
		if chain := reach(nodes, callee, seen); chain != nil {
			return append([]*types.Func{fn}, chain...)
		}
	}
	return nil
}
