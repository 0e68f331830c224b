// Package errtaxonomy enforces the transient/permanent/corrupt error
// taxonomy in the training pipeline (internal/resilience,
// internal/experiments and its campaign engine, the internal/store +
// internal/lifecycle self-healing layers, and the system.go facade that
// hands TrainFromSystem to that engine). The retry and
// quarantine machinery branches on errors.Is, so every error must keep
// its chain intact and every new error must be classified:
//
//   - fmt.Errorf that is passed an error but no %w verb severs the
//     chain and is rejected;
//   - comparing errors with == or != (except against nil) bypasses
//     wrapped chains and is rejected in favor of errors.Is;
//   - a leaf error (errors.New, or fmt.Errorf with no %w) must be
//     classified: either wrapped by a resilience classifier
//     (Transient/Permanent/Corrupt/Corruptf) at the call site, declared
//     as a package-level Err* sentinel inside internal/resilience
//     (the taxonomy roots themselves), or carry a %w wrapping a
//     sentinel.
package errtaxonomy

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"contender/internal/analysis"
)

// ScopedPackages are the repo-relative packages the analyzer applies to.
var ScopedPackages = []string{
	"internal/resilience",
	"internal/experiments",
	"internal/store",
	"internal/lifecycle",
	"internal/serve",
}

// ScopedRootFiles are file basenames checked in any other package (the
// TrainFromSystem facade lives in the module root next to facade files
// that are out of scope).
var ScopedRootFiles = map[string]bool{"system.go": true}

// ResiliencePackage hosts the taxonomy roots and classifiers.
const ResiliencePackage = "internal/resilience"

// classifiers wrap a leaf error into the taxonomy.
var classifiers = map[string]bool{"Transient": true, "Permanent": true, "Corrupt": true, "Corruptf": true}

// Analyzer is the errtaxonomy check.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc:  "enforce the transient/permanent/corrupt taxonomy: %w wrapping, errors.Is over ==, classified leaf errors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pkgScoped := false
	for _, p := range ScopedPackages {
		if analysis.PathMatches(pass.Pkg.Path(), p) {
			pkgScoped = true
			break
		}
	}
	inResilience := analysis.PathMatches(pass.Pkg.Path(), ResiliencePackage)
	for _, f := range pass.Files {
		if !pkgScoped && !ScopedRootFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		checkFile(pass, f, inResilience)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File, inResilience bool) {
	// Call sites whose leaf construction is excused because a
	// classifier wraps it directly: Transient(fmt.Errorf(...)).
	excused := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isClassifierCall(pass, call) {
			for _, arg := range call.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					excused[inner] = true
				}
			}
		}
		return true
	})
	// Package-level sentinel declarations: allowed taxonomy roots in
	// internal/resilience only.
	sentinelInits := make(map[*ast.CallExpr]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, val := range vs.Values {
				if call, ok := ast.Unparen(val).(*ast.CallExpr); ok && i < len(vs.Names) {
					sentinelInits[call] = vs.Names[i].Name
				}
			}
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorConstruction(pass, n, excused, sentinelInits, inResilience)
		case *ast.BinaryExpr:
			checkComparison(pass, n)
		}
		return true
	})
}

// isClassifierCall reports whether the call invokes a resilience
// taxonomy classifier (resilience.Transient etc., or the local
// Transient inside the resilience package itself).
func isClassifierCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !classifiers[fn.Name()] {
		return false
	}
	return analysis.PathMatches(fn.Pkg().Path(), ResiliencePackage)
}

// calleeIs reports whether the call resolves to pkgPath.name.
func calleeIs(pass *analysis.Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

func checkErrorConstruction(pass *analysis.Pass, call *ast.CallExpr, excused map[*ast.CallExpr]bool, sentinelInits map[*ast.CallExpr]string, inResilience bool) {
	isErrorf := calleeIs(pass, call, "fmt", "Errorf")
	isNew := calleeIs(pass, call, "errors", "New")
	if !isErrorf && !isNew {
		return
	}

	if isErrorf {
		format, ok := formatLiteral(call)
		wraps := ok && strings.Contains(format, "%w")
		if wraps {
			return
		}
		// An error argument without %w severs the chain.
		for _, arg := range call.Args[1:] {
			if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Type != nil && isErrorType(tv.Type) {
				pass.Reportf(call.Pos(), "fmt.Errorf is passed an error but has no %%w verb: the chain is severed and errors.Is stops working; wrap with %%w")
				return
			}
		}
		if !ok {
			return // non-literal format: cannot judge statically
		}
	}

	// Leaf error: must be classified into the taxonomy.
	if excused[call] {
		return
	}
	if name, isSentinel := sentinelInits[call]; isSentinel {
		if inResilience {
			return // the taxonomy roots themselves
		}
		pass.Reportf(call.Pos(), "package-level sentinel %s is outside the taxonomy; classify it (e.g. resilience.Permanent(errors.New(…))) or wrap a taxonomy sentinel with %%w", name)
		return
	}
	construct := "errors.New"
	if isErrorf {
		construct = "fmt.Errorf without %w"
	}
	pass.Reportf(call.Pos(), "%s creates an error outside the transient/permanent/corrupt taxonomy; wrap a sentinel with %%w or classify via resilience.Transient/Permanent/Corrupt", construct)
}

// formatLiteral returns the call's first argument when it is a string
// literal (possibly a concatenation of literals).
func formatLiteral(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	return stringLit(call.Args[0])
}

func stringLit(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			return e.Value, true
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			l, lok := stringLit(e.X)
			r, rok := stringLit(e.Y)
			if lok && rok {
				return l + r, true
			}
		}
	}
	return "", false
}

// checkComparison flags err == sentinel / err != sentinel: wrapped
// chains never compare equal, so the taxonomy requires errors.Is.
func checkComparison(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	xt, xok := pass.TypesInfo.Types[be.X]
	yt, yok := pass.TypesInfo.Types[be.Y]
	if !xok || !yok || xt.Type == nil || yt.Type == nil {
		return
	}
	if isUntypedNil(xt) || isUntypedNil(yt) {
		return
	}
	if isErrorType(xt.Type) && isErrorType(yt.Type) {
		pass.Reportf(be.Pos(), "comparing errors with %s misses wrapped chains; use errors.Is", be.Op)
	}
}

func isUntypedNil(tv types.TypeAndValue) bool {
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
}
