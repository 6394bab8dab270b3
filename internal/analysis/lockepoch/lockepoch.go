// Package lockepoch implements the authlint analyzer enforcing the
// epoch-bump discipline from the PR 3 answer-cache design: the version
// counters (fields named epochs / filterEpoch) may only be
// advanced — .Add — inside a critical section that holds a write lock,
// and may never be .Store'd (a Store can publish a smaller value,
// breaking the monotonicity the cache's stamp re-validation relies on).
//
// "Holding a write lock" is established structurally: a preceding
// X.Lock() in the same function (including one acquired inside a loop,
// e.g. locking every touched shard in ascending order), or a call to a
// same-package helper whose body net-acquires locks (lockAll). A
// function whose caller is documented to hold the lock opts out with a
// //authlint:locked directive on its doc comment.
//
// An answer-cache stamp holds a pointer to each counter it read, so the
// checks above hold only while no other pointer exists: a counter's
// address may be taken only as the argument of (*anscache.Stamp).Read,
// which only loads it. Anywhere else, `p := &qs.epochs[i]; p.Add(1)`
// would advance the counter out of this analyzer's sight.
package lockepoch

import (
	"go/ast"
	"go/token"
	"go/types"

	"authdb/internal/analysis"
	"authdb/internal/analysis/astutil"
)

// Analyzer is the lockepoch pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockepoch",
	Doc:  "check that epoch counters only advance (Add, never Store) under a write lock, and that their address reaches only a stamp's Read",
	Run:  run,
}

// epochFields are the version-counter fields under protection.
var epochFields = []string{"epochs", "filterEpoch"}

type checker struct {
	pass      *analysis.Pass
	info      *types.Info
	summaries map[*types.Func]astutil.LockSummary
	annotated bool
}

func run(pass *analysis.Pass) error {
	summaries := astutil.LockSummaries(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		checkAddresses(pass, f)
		for _, fn := range astutil.Functions(f) {
			c := &checker{
				pass:      pass,
				info:      pass.TypesInfo,
				summaries: summaries,
				annotated: analysis.HasDirective(fn.Decl.Doc, "locked"),
			}
			c.walkStmts(fn.Body.List, map[string]bool{})
		}
	}
	return nil
}

func cloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// walkStmts interprets a statement list, threading the held write-lock
// set, and returns the set at fall-through.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range stmts {
		held = c.walkStmt(s, held)
	}
	return held
}

func (c *checker) walkStmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.checkExpr(s.X, held)
		return c.applyLockEffects(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.checkExpr(r, held)
			held = c.applyLockEffects(r, held)
		}
		return held
	case *ast.DeferStmt:
		// A deferred unlock releases at exit; the lock stays held for
		// the rest of the body. Deferred closures containing epoch
		// writes inherit the current held set (they run at exit, where
		// deferred unlocks may already have run — be conservative and
		// check them with an empty set unless annotated).
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(fl.Body.List, map[string]bool{})
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkExpr(r, held)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		thenHeld := c.walkStmts(s.Body.List, cloneSet(held))
		elseHeld := held
		if s.Else != nil {
			elseHeld = c.walkStmt(s.Else, cloneSet(held))
		}
		return intersect(thenHeld, elseHeld)
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		// Loops merge optimistically (union): the lock-every-shard
		// pattern acquires inside the body and relies on them after.
		body := c.walkStmts(s.Body.List, cloneSet(held))
		return union(held, body)
	case *ast.RangeStmt:
		c.checkExpr(s.X, held)
		body := c.walkStmts(s.Body.List, cloneSet(held))
		return union(held, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				held = c.walkStmt(sw.Init, held)
			}
			clauses = sw.Body
		case *ast.TypeSwitchStmt:
			clauses = sw.Body
		case *ast.SelectStmt:
			clauses = sw.Body
		}
		out := cloneSet(held)
		for _, cl := range clauses.List {
			var body []ast.Stmt
			switch cc := cl.(type) {
			case *ast.CaseClause:
				body = cc.Body
			case *ast.CommClause:
				body = cc.Body
			}
			out = intersect(out, c.walkStmts(body, cloneSet(held)))
		}
		return out
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A spawned goroutine does not inherit the caller's locks.
			c.walkStmts(fl.Body.List, map[string]bool{})
		}
		return held
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.checkExpr(e, held)
				return false
			}
			return true
		})
		return held
	}
	return held
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := cloneSet(a)
	for k := range b {
		out[k] = true
	}
	return out
}

// applyLockEffects updates the held set for lock calls and
// lock-helper calls appearing in e (evaluated in order).
func (c *checker) applyLockEffects(e ast.Expr, held map[string]bool) map[string]bool {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mu, kind := astutil.ClassifyLockCall(c.info, call); kind != astutil.NotLock {
			key := astutil.MutexKey(mu)
			switch kind {
			case astutil.Lock:
				held[key] = true
			case astutil.Unlock:
				delete(held, key)
			}
			return true
		}
		if fn := astutil.Callee(c.info, call); fn != nil {
			if sum, ok := c.summaries[fn]; ok {
				for k := range sum.Acquires {
					held[k] = true
				}
				for k := range sum.Releases {
					delete(held, k)
				}
			}
		}
		return true
	})
	return held
}

// checkExpr reports epoch-counter misuse in e given the held set.
func (c *checker) checkExpr(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Function literals execute elsewhere; walked separately
			// with an empty held set where relevant.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field, isEpoch := astutil.SelectsField(c.info, sel.X, epochFields...)
		if !isEpoch {
			return true
		}
		switch sel.Sel.Name {
		case "Store":
			c.pass.Reportf(call.Pos(),
				"%s is a monotonic epoch counter: Store can publish a smaller value; use Add", field)
		case "Add":
			if len(held) == 0 && !c.annotated {
				c.pass.Reportf(call.Pos(),
					"%s advanced outside a write-lock critical section (no .Lock() structurally precedes; annotate the function //authlint:locked if the caller holds it)", field)
			}
		}
		return true
	})
}

// checkAddresses reports every &-expression on an epoch counter in f that
// is not the argument of (*anscache.Stamp).Read, the one Read in anscache.
// A call is visited before its arguments, so they are allowed in time.
func checkAddresses(pass *analysis.Pass, f *ast.File) {
	allowed := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if astutil.IsPkgFunc(astutil.Callee(pass.TypesInfo, n), "anscache", "Read") && len(n.Args) == 1 {
				allowed[ast.Unparen(n.Args[0])] = true
			}
		case *ast.UnaryExpr:
			if field, ok := astutil.SelectsField(pass.TypesInfo, n.X, epochFields...); ok && n.Op == token.AND && !allowed[n] {
				pass.Reportf(n.Pos(), "address of %s taken outside (*anscache.Stamp).Read: advanced through the pointer, it escapes the write-lock and Add-only checks", field)
			}
		}
		return true
	})
}
