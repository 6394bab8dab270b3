// Package bufcustody implements the authlint analyzer enforcing pooled
// wire-buffer custody: every wire.GetBuffer() result must reach exactly
// one wire.PutBuffer (or a documented ownership transfer — being
// returned, stored into a structure, sent on a channel, or handed to a
// goroutine/closure that releases it) on every path, including error
// returns. This is the invariant whose violation was the PR 4
// server.Codec leak: the codec encoded into a pooled buffer and an
// error return path dropped it on the floor.
//
// The analyzer runs a structural abstract interpretation of each
// function body. A custody token is created where GetBuffer is called;
// variables the buffer flows through (x := GetBuffer(); y := append(x,
// ...); y = wire.AppendFoo(y[:0], ...)) join the token's alias set; the
// token's state (held / released / escaped) is tracked along every
// structural path. Branches are explored independently and merged;
// loops are explored as execute-once-or-not.
package bufcustody

import (
	"go/ast"
	"go/token"
	"go/types"

	"authdb/internal/analysis"
	"authdb/internal/analysis/astutil"
)

// Analyzer is the bufcustody pass.
var Analyzer = &analysis.Analyzer{
	Name: "bufcustody",
	Doc:  "check that every wire.GetBuffer reaches exactly one PutBuffer or ownership transfer on all paths",
	Run:  run,
}

// status is the custody state of one token along one path.
type status int

const (
	held     status = iota // we own the buffer and must release or transfer it
	released               // PutBuffer consumed it
	escaped                // ownership transferred (returned, stored, sent, delegated)
)

func (s status) String() string {
	switch s {
	case held:
		return "held"
	case released:
		return "released"
	default:
		return "escaped"
	}
}

// tokenState is the per-path state of a token.
type tokenState struct {
	st       status
	deferred bool // a deferred call releases it on every exit
}

// env maps token id -> state along the current path.
type env map[int]tokenState

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// tokenMeta is path-independent token bookkeeping.
type tokenMeta struct {
	createPos     token.Pos
	mergeReported bool
}

type interp struct {
	pass    *analysis.Pass
	info    *types.Info
	tokens  []*tokenMeta
	aliases map[types.Object]int // variable -> token id (flow-insensitive)
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Every function declaration and every function literal is an
		// independent custody unit.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				in := &interp{pass: pass, info: pass.TypesInfo, aliases: make(map[types.Object]int)}
				in.execBlock(body.List, make(env), body)
			}
			return true
		})
	}
	return nil
}

// --- wire API recognition ---

func (in *interp) calleeIs(call *ast.CallExpr, name string) bool {
	return astutil.IsPkgFunc(astutil.Callee(in.info, call), "wire", name)
}

func (in *interp) isGetBuffer(call *ast.CallExpr) bool { return in.calleeIs(call, "GetBuffer") }
func (in *interp) isPutBuffer(call *ast.CallExpr) bool { return in.calleeIs(call, "PutBuffer") }

// findGetBuffer returns GetBuffer calls lexically inside e, not
// descending into function literals (those are separate units).
func (in *interp) findGetBuffer(e ast.Expr) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && in.isGetBuffer(c) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// refs returns the ids of tokens whose alias variables appear anywhere
// in e (including inside captured closures).
func (in *interp) refs(e ast.Expr) []int {
	seen := map[int]bool{}
	var out []int
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := in.info.Uses[id]
		if obj == nil {
			obj = in.info.Defs[id]
		}
		if obj == nil {
			return true
		}
		if t, ok := in.aliases[obj]; ok && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
		return true
	})
	return out
}

// directAliasArg returns the token aliased by a call/append expression
// under the flow conventions of the codebase: append aliases only its
// first argument (later args are copied from); wire-style
// Append*(dst, ...) and friends alias any directly passed []byte alias.
func (in *interp) directAliasArg(call *ast.CallExpr) (int, bool) {
	isAppend := false
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isFn := in.info.Uses[id].(*types.Func); !isFn {
			isAppend = true // the builtin
		}
	}
	args := call.Args
	if isAppend && len(args) > 0 {
		args = args[:1]
	}
	for _, a := range args {
		if t, ok := in.exprAlias(a); ok {
			return t, true
		}
	}
	return 0, false
}

// exprAlias resolves e to a token when e is a direct alias expression:
// an alias identifier, a slice of one (buf[:0]), or a parenthesized
// form.
func (in *interp) exprAlias(e ast.Expr) (int, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := in.info.Uses[e]
		if obj == nil {
			obj = in.info.Defs[e]
		}
		if obj != nil {
			t, ok := in.aliases[obj]
			return t, ok
		}
	case *ast.SliceExpr:
		return in.exprAlias(e.X)
	}
	return 0, false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func (in *interp) lhsObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := in.info.Defs[id]; obj != nil {
		return obj
	}
	return in.info.Uses[id]
}

func (in *interp) newToken(pos token.Pos) int {
	in.tokens = append(in.tokens, &tokenMeta{createPos: pos})
	return len(in.tokens) - 1
}

func (in *interp) bind(obj types.Object, t int, e env) {
	if obj == nil {
		return
	}
	if old, ok := in.aliases[obj]; ok && old != t {
		if st, live := e[old]; live && st.st == held && !st.deferred && in.aliasCount(old) == 1 {
			in.pass.Reportf(obj.Pos(), "pooled buffer from %s overwritten while still held (leak)",
				in.posOf(old))
		}
	}
	in.aliases[obj] = t
}

func (in *interp) aliasCount(t int) int {
	n := 0
	for _, id := range in.aliases {
		if id == t {
			n++
		}
	}
	return n
}

func (in *interp) posOf(t int) string {
	return in.pass.Fset.Position(in.tokens[t].createPos).String()
}

// --- statement interpretation ---

// execBlock runs stmts, then performs the end-of-scope leak check for
// tokens created inside scope whose aliases are all scoped to it.
func (in *interp) execBlock(stmts []ast.Stmt, e env, scope *ast.BlockStmt) (env, bool) {
	before := len(in.tokens)
	term := false
	for _, s := range stmts {
		e, term = in.exec(s, e)
		if term {
			break
		}
	}
	if !term && scope != nil {
		for t := before; t < len(in.tokens); t++ {
			st, ok := e[t]
			if !ok || st.st != held || st.deferred {
				continue
			}
			if in.tokenScopedWithin(t, scope) {
				in.pass.Reportf(in.tokens[t].createPos,
					"pooled buffer leaks at end of scope: no PutBuffer or ownership transfer")
				delete(e, t)
			}
		}
	}
	return e, term
}

// tokenScopedWithin reports whether every alias variable of t is
// declared inside scope (so the buffer is unreachable past its end).
func (in *interp) tokenScopedWithin(t int, scope *ast.BlockStmt) bool {
	any := false
	for obj, id := range in.aliases {
		if id != t {
			continue
		}
		any = true
		if obj.Pos() < scope.Pos() || obj.Pos() > scope.End() {
			return false
		}
	}
	return any
}

func (in *interp) exec(s ast.Stmt, e env) (env, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		in.execAssign(s, e)
	case *ast.DeclStmt:
		in.execDecl(s, e)
	case *ast.ExprStmt:
		in.execExpr(s.X, e, false)
	case *ast.DeferStmt:
		in.execDefer(s, e)
	case *ast.GoStmt:
		for _, t := range in.refs(s.Call) {
			e[t] = tokenState{st: escaped, deferred: e[t].deferred}
		}
	case *ast.SendStmt:
		for _, t := range in.refs(s.Value) {
			e[t] = tokenState{st: escaped, deferred: e[t].deferred}
		}
	case *ast.ReturnStmt:
		return in.execReturn(s, e)
	case *ast.IfStmt:
		return in.execIf(s, e)
	case *ast.ForStmt:
		if s.Init != nil {
			e, _ = in.exec(s.Init, e)
		}
		return in.execLoopBody(s.Body, e), false
	case *ast.RangeStmt:
		return in.execLoopBody(s.Body, e), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			e, _ = in.exec(s.Init, e)
		}
		return in.execClauses(s.Body, e, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e, _ = in.exec(s.Init, e)
		}
		return in.execClauses(s.Body, e, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		return in.execClauses(s.Body, e, false)
	case *ast.BlockStmt:
		return in.execBlock(s.List, e, s)
	case *ast.LabeledStmt:
		return in.exec(s.Stmt, e)
	case *ast.BranchStmt:
		// break/continue/goto end the current structural path.
		return e, true
	}
	return e, false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func (in *interp) execDecl(s *ast.DeclStmt, e env) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			var lhs ast.Expr
			if i < len(vs.Names) {
				lhs = vs.Names[i]
			}
			in.assignOne(lhs, v, e)
		}
	}
}

func (in *interp) execAssign(s *ast.AssignStmt, e env) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple assignment: out, err := f(buf) — the []byte results
		// join the alias set of any token the call consumed (or
		// created, for f(GetBuffer())).
		rhs := s.Rhs[0]
		t, have := in.tokenFromRHS(rhs, e)
		if !have {
			return
		}
		bound := false
		for _, l := range s.Lhs {
			obj := in.lhsObj(l)
			if obj != nil && isByteSlice(obj.Type()) {
				in.bind(obj, t, e)
				bound = true
			}
		}
		if !bound {
			in.escapeIfStored(s.Lhs, t, e)
		}
		return
	}
	for i, rhs := range s.Rhs {
		var lhs ast.Expr
		if i < len(s.Lhs) {
			lhs = s.Lhs[i]
		}
		in.assignOne(lhs, rhs, e)
	}
}

// tokenFromRHS finds or creates the token an RHS expression carries:
// a GetBuffer call creates one; a call/append consuming an alias
// propagates that token. Reports untracked GetBuffer uses.
func (in *interp) tokenFromRHS(rhs ast.Expr, e env) (int, bool) {
	rhs = ast.Unparen(rhs)
	if gets := in.findGetBuffer(rhs); len(gets) > 0 {
		for _, extra := range gets[1:] {
			in.pass.Reportf(extra.Pos(), "second GetBuffer in one expression; custody untrackable")
		}
		t := in.newToken(gets[0].Pos())
		e[t] = tokenState{st: held}
		return t, true
	}
	if call, ok := rhs.(*ast.CallExpr); ok {
		if t, ok := in.directAliasArg(call); ok {
			return t, true
		}
		return 0, false
	}
	if t, ok := in.exprAlias(rhs); ok {
		return t, true
	}
	return 0, false
}

func (in *interp) assignOne(lhs, rhs ast.Expr, e env) {
	t, have := in.tokenFromRHS(rhs, e)
	if !have {
		// No token flows via the recognized conventions. A non-call RHS
		// that still references an alias (composite literal, &struct{},
		// index read) may embed the buffer in a longer-lived value:
		// treat as ownership transfer. Calls merely borrow.
		if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); !isCall {
			for _, r := range in.refs(rhs) {
				if st, ok := e[r]; ok && st.st == held {
					e[r] = tokenState{st: escaped, deferred: st.deferred}
				}
			}
		}
		return
	}
	if lhs == nil {
		return
	}
	if obj := in.lhsObj(lhs); obj != nil {
		if isByteSlice(obj.Type()) {
			in.bind(obj, t, e)
		}
		return
	}
	// Stored into a field/index/deref: ownership transfer.
	in.escapeIfStored([]ast.Expr{lhs}, t, e)
}

func (in *interp) escapeIfStored(lhs []ast.Expr, t int, e env) {
	for _, l := range lhs {
		if _, isIdent := ast.Unparen(l).(*ast.Ident); !isIdent {
			st := e[t]
			e[t] = tokenState{st: escaped, deferred: st.deferred}
			return
		}
	}
}

// execExpr handles expression statements (and conditions, with
// condOnly set, where only untracked-GetBuffer detection applies).
func (in *interp) execExpr(x ast.Expr, e env, condOnly bool) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		for _, g := range in.findGetBuffer(x) {
			in.pass.Reportf(g.Pos(), "GetBuffer result is not bound to a variable; buffer leaks")
		}
		return
	}
	switch {
	case in.isPutBuffer(call):
		if len(call.Args) != 1 {
			return
		}
		t, ok := in.exprAlias(call.Args[0])
		if !ok {
			return
		}
		st := e[t]
		switch st.st {
		case held:
			e[t] = tokenState{st: released, deferred: st.deferred}
		case released:
			in.pass.Reportf(call.Pos(), "double PutBuffer: buffer from %s was already released on this path", in.posOf(t))
		case escaped:
			in.pass.Reportf(call.Pos(), "PutBuffer after ownership of the buffer from %s was transferred", in.posOf(t))
		}
	case in.isGetBuffer(call):
		in.pass.Reportf(call.Pos(), "GetBuffer result discarded; buffer leaks")
	default:
		if condOnly {
			for _, g := range in.findGetBuffer(call) {
				in.pass.Reportf(g.Pos(), "GetBuffer result is not bound to a variable; buffer leaks")
			}
			return
		}
		for _, g := range in.findGetBuffer(call) {
			in.pass.Reportf(g.Pos(), "GetBuffer result passed into a call without a named owner; custody untrackable")
		}
		// A closure argument that releases a captured alias takes
		// custody (e.g. pool.Do(func(){ wire.PutBuffer(buf) })).
		for _, a := range call.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				for _, t := range in.closureReleases(fl) {
					st := e[t]
					e[t] = tokenState{st: escaped, deferred: st.deferred}
				}
			}
		}
	}
}

// closureReleases returns tokens whose aliases a function literal
// passes to PutBuffer.
func (in *interp) closureReleases(fl *ast.FuncLit) []int {
	var out []int
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if ok && in.isPutBuffer(c) && len(c.Args) == 1 {
			if t, ok := in.exprAlias(c.Args[0]); ok {
				out = append(out, t)
			}
		}
		return true
	})
	return out
}

func (in *interp) execDefer(s *ast.DeferStmt, e env) {
	markDeferred := func(t int) {
		st := e[t]
		st.deferred = true
		e[t] = st
	}
	if in.isPutBuffer(s.Call) && len(s.Call.Args) == 1 {
		if t, ok := in.exprAlias(s.Call.Args[0]); ok {
			markDeferred(t)
		}
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		for _, t := range in.closureReleases(fl) {
			markDeferred(t)
		}
	}
}

func (in *interp) execReturn(s *ast.ReturnStmt, e env) (env, bool) {
	for _, r := range s.Results {
		for _, t := range in.refs(r) {
			st := e[t]
			e[t] = tokenState{st: escaped, deferred: st.deferred}
		}
	}
	for t, st := range e {
		if st.st == held && !st.deferred {
			in.pass.Reportf(s.Pos(),
				"pooled buffer from %s leaks on this return path: no PutBuffer or ownership transfer", in.posOf(t))
		}
	}
	return e, true
}

func (in *interp) execIf(s *ast.IfStmt, e env) (env, bool) {
	if s.Init != nil {
		e, _ = in.exec(s.Init, e)
	}
	in.execExpr(s.Cond, e, true)
	thenEnv, thenTerm := in.execBlock(s.Body.List, e.clone(), s.Body)
	elseEnv, elseTerm := e, false
	if s.Else != nil {
		elseEnv, elseTerm = in.exec(s.Else, e.clone())
	}
	switch {
	case thenTerm && elseTerm:
		return e, true
	case thenTerm:
		return elseEnv, false
	case elseTerm:
		return thenEnv, false
	default:
		return in.merge(s.End(), thenEnv, elseEnv), false
	}
}

// execLoopBody explores the body once and merges with the
// loop-not-taken path. Per-iteration leaks are caught by execBlock's
// end-of-scope check on the body.
func (in *interp) execLoopBody(body *ast.BlockStmt, e env) env {
	bodyEnv, term := in.execBlock(body.List, e.clone(), body)
	if term {
		return e
	}
	return in.merge(body.End(), e, bodyEnv)
}

func (in *interp) execClauses(body *ast.BlockStmt, e env, exhaustive bool) (env, bool) {
	var surviving []env
	allTerm := true
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				// The comm op itself (send/recv) can move custody.
				ce := e.clone()
				ce, _ = in.exec(cc.Comm, ce)
				env2, term := in.execClauseBody(cc.Body, ce)
				if !term {
					surviving = append(surviving, env2)
					allTerm = false
				}
				continue
			}
			stmts = cc.Body
		}
		env2, term := in.execClauseBody(stmts, e.clone())
		if !term {
			surviving = append(surviving, env2)
			allTerm = false
		}
	}
	if !exhaustive {
		surviving = append(surviving, e)
		allTerm = false
	}
	if allTerm && len(body.List) > 0 {
		return e, true
	}
	out := surviving[0]
	for _, s := range surviving[1:] {
		out = in.merge(body.End(), out, s)
	}
	return out, false
}

func (in *interp) execClauseBody(stmts []ast.Stmt, e env) (env, bool) {
	term := false
	for _, s := range stmts {
		e, term = in.exec(s, e)
		if term {
			break
		}
	}
	return e, term
}

// merge joins two surviving paths. A token held on one path but
// released/escaped on the other is a custody inconsistency (put on
// some paths only) and is reported once per token.
func (in *interp) merge(pos token.Pos, a, b env) env {
	out := make(env, len(a))
	for t, sa := range a {
		sb, inB := b[t]
		if !inB {
			out[t] = sa
			continue
		}
		st := sa
		st.deferred = sa.deferred || sb.deferred
		if sa.st != sb.st {
			if (sa.st == held || sb.st == held) && !st.deferred && !in.tokens[t].mergeReported {
				in.tokens[t].mergeReported = true
				in.pass.Reportf(in.tokens[t].createPos,
					"pooled buffer is released or transferred on some paths but still held on others")
			}
			// Continue with the weaker (non-held) state to avoid
			// cascading reports.
			if sa.st == held {
				st.st = sb.st
			} else if sb.st == held {
				st.st = sa.st
			} else {
				st.st = escaped
			}
		}
		out[t] = st
	}
	for t, sb := range b {
		if _, ok := a[t]; !ok {
			out[t] = sb
		}
	}
	return out
}
