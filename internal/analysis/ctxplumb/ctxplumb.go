// Package ctxplumb flags exported functions that accept a
// context.Context and then drop it: the body never mentions the
// parameter even though it makes calls that could have carried it
// (callees with a Context parameter, timer waits, channel operations).
// A dropped context means cancellation never reaches the blocking work
// — exactly the bug the resilient training pipeline's prompt-
// cancellation contract forbids. It also flags context.Background()/
// context.TODO() used inside a function that already has a Context
// parameter.
package ctxplumb

import (
	"go/ast"
	"go/types"

	"contender/internal/analysis"
)

// Analyzer is the ctxplumb check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxplumb",
	Doc:  "flag exported Context-accepting functions that drop ctx before reaching a blocking call",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// ctxParams returns the *types.Var objects of the function's
// context.Context parameters.
func ctxParams(pass *analysis.Pass, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if ok && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := ctxParams(pass, fd)
	if len(params) == 0 {
		return
	}
	used := make(map[*types.Var]bool)
	var blocking ast.Node
	var freshCtx []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok {
				for _, p := range params {
					if v == p {
						used[p] = true
					}
				}
			}
		case *ast.CallExpr:
			if blocking == nil && callTakesContext(pass, n) {
				blocking = n
			}
			if isBackgroundOrTODO(pass, n) {
				freshCtx = append(freshCtx, n)
			}
		case *ast.SelectStmt, *ast.SendStmt:
			if blocking == nil {
				blocking = n
			}
		case *ast.UnaryExpr:
			// <-ch receive
			if blocking == nil && n.Op.String() == "<-" {
				blocking = n
			}
		}
		return true
	})
	allUsed := true
	for _, p := range params {
		if !used[p] {
			allUsed = false
		}
	}
	if !allUsed && blocking != nil {
		pass.Reportf(fd.Name.Pos(), "exported %s accepts a context.Context but drops it before its blocking calls; plumb ctx through so cancellation works", fd.Name.Name)
	}
	for _, n := range freshCtx {
		pass.Reportf(n.Pos(), "%s has a context.Context parameter; use it instead of minting a fresh context here", fd.Name.Name)
	}
}

// callTakesContext reports whether the callee's signature accepts a
// context.Context (or time.Sleep — an unconditionally blocking wait).
func callTakesContext(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return true
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isBackgroundOrTODO matches context.Background() and context.TODO().
func isBackgroundOrTODO(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO")
}
