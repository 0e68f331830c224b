// Package goroleak requires every goroutine spawned in internal/serve
// and internal/lifecycle to be tied to a shutdown mechanism, so that
// Shutdown can prove quiescence. An untied goroutine survives Shutdown
// and races the teardown of the very state it touches — the serving
// layer's shutdown ordering only works because every spawn is accounted
// for.
//
// A spawned body is tied when it contains at least one of:
//
//   - a sync.WaitGroup.Done call (the spawner Waits on the group);
//   - a close(ch) call (the body signals a done-channel);
//   - a receive from ctx.Done() (context-bound loop);
//   - a receive from, or range over, a chan struct{} (the stop/done
//     channel idiom).
//
// `go` statements whose callee cannot be resolved to a body in the same
// package (external functions, method values from other packages) are
// flagged too: the analyzer cannot prove their lifecycle, so the spawn
// either moves behind a tied wrapper or carries a reasoned waiver.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"contender/internal/analysis"
)

// ScopedPackages are the repo-relative packages the analyzer applies to.
var ScopedPackages = []string{
	"internal/serve",
	"internal/lifecycle",
}

// Analyzer is the goroleak check.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "every go statement in serve/lifecycle ties to a WaitGroup, done-channel, or ctx-bound loop",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	scoped := false
	for _, p := range ScopedPackages {
		if analysis.PathMatches(pass.Pkg.Path(), p) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	// Map every same-package function object to its declared body so
	// `go st.writeLoop()` resolves through the method's declaration.
	bodies := make(map[*types.Func]*ast.BlockStmt)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = fd.Body
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, resolved := spawnedBody(pass, gs, bodies)
			if !resolved {
				pass.Reportf(gs.Pos(), "goroutine body cannot be resolved in this package, so its lifecycle cannot be proven; spawn through a tied local wrapper or waive with //contender:allow goroleak -- <reason>")
				return true
			}
			if !tied(pass, body) {
				pass.Reportf(gs.Pos(), "goroutine is not tied to a WaitGroup, done-channel, or ctx-bound loop; Shutdown cannot prove quiescence — add wg.Done/close(done)/<-ctx.Done() or waive with //contender:allow goroleak -- <reason>")
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the body the go statement will run.
func spawnedBody(pass *analysis.Pass, gs *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt) (*ast.BlockStmt, bool) {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, true
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if b, ok := bodies[fn]; ok {
				return b, true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if b, ok := bodies[fn]; ok {
				return b, true
			}
		}
	}
	return nil, false
}

// tied reports whether the body contains a recognized shutdown tie.
func tied(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) || isClose(pass, n) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && (isCtxDone(pass, n.X) || isStructChan(pass, n.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if isStructChan(pass, n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done"
}

func isClose(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

// isCtxDone matches ctx.Done() receives.
func isCtxDone(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == "Done"
}

// isStructChan matches expressions of type <-chan struct{} / chan
// struct{} — the stop/done channel idiom.
func isStructChan(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
