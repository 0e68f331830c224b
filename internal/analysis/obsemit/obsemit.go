// Package obsemit enforces the two boundaries between the
// observability layer and the deterministic pipeline:
//
//  1. Outside internal/obs, instrumentation must deliver events through
//     the panic-isolating obs.Emit wrapper (or a facade that wraps it),
//     never by invoking Observer.Event directly — a user-supplied
//     observer that panics must not be able to corrupt training or
//     serving.
//  2. Checkpoint/campaign fingerprint functions must not consume
//     observer state: fingerprints decide checkpoint reuse, and
//     observer identity (pointers, counters) varies run to run even
//     when the campaign is identical.
package obsemit

import (
	"go/ast"
	"go/types"
	"strings"

	"contender/internal/analysis"
)

// ObsPackage is the repo-relative import path of the observability
// package; matching is by suffix so golden testdata can model it.
const ObsPackage = "internal/obs"

// Analyzer is the obsemit check.
var Analyzer = &analysis.Analyzer{
	Name: "obsemit",
	Doc:  "require Observer.Event delivery via the panic-isolating obs.Emit wrapper; keep observer state out of checkpoint fingerprints",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	inObs := analysis.PathMatches(pass.Pkg.Path(), ObsPackage)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isFingerprintFunc(fd) {
				checkFingerprint(pass, fd)
			}
			if !inObs {
				checkRawEmit(pass, fd)
			}
		}
	}
	return nil
}

// isObsType reports whether t is declared in (or derived from a type
// declared in) the observability package.
func isObsType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isObsType(t.Elem())
	case *types.Slice:
		return isObsType(t.Elem())
	case *types.Named:
		pkg := t.Obj().Pkg()
		return pkg != nil && analysis.PathMatches(pkg.Path(), ObsPackage)
	case *types.Alias:
		return isObsType(types.Unalias(t))
	}
	return false
}

// isObserverInterface reports whether t is the obs Observer interface
// (or an alias of it).
func isObserverInterface(t types.Type) bool {
	t = types.Unalias(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && analysis.PathMatches(pkg.Path(), ObsPackage) && named.Obj().Name() == "Observer"
}

// checkRawEmit flags x.Event(ev) where x's static type is the obs
// Observer interface: the call must go through obs.Emit so a panicking
// observer is isolated at the instrumentation boundary.
func checkRawEmit(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Event" {
			return true
		}
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || recv.Type == nil {
			return true
		}
		if isObserverInterface(recv.Type) {
			pass.Reportf(call.Pos(), "raw Observer.Event call bypasses panic isolation; deliver through obs.Emit (or the EmitEvent facade)")
		}
		return true
	})
}

// isFingerprintFunc matches the checkpoint fingerprint function (the
// campaign engine's fingerprint method) by name.
func isFingerprintFunc(fd *ast.FuncDecl) bool {
	return strings.Contains(strings.ToLower(fd.Name.Name), "fingerprint")
}

// checkFingerprint flags any expression of an obs-declared type — an
// Observer, a Metrics registry, a Recording log — used inside a
// fingerprint function, and any call argument whose struct type
// carries an obs-typed field (formatting such a struct wholesale, e.g.
// %+v of an Options value, would hash observer identity).
func checkFingerprint(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj == nil || obj.Type() == nil {
				return true
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return true
			}
			if isObsType(obj.Type()) {
				pass.Reportf(n.Pos(), "observer state (%s) must not reach the checkpoint fingerprint: fingerprints gate resume and observers vary run to run", obj.Type())
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if structCarriesObs(tv.Type) {
					pass.Reportf(arg.Pos(), "value of type %s carries observer state; fingerprint its deterministic fields individually", tv.Type)
				}
			}
		}
		return true
	})
}

// structCarriesObs reports whether t is (or points to) a struct with a
// field of an obs-declared type.
func structCarriesObs(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isObsType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
