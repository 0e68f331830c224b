// Package nodeterminism forbids sources of run-to-run nondeterminism
// inside the deterministic training-data collection packages. The
// byte-identity contract — continuum/CQI/QS artifacts identical at any
// worker count (Eqs. 2–7) — rests on every value being derived from the
// campaign seed, so wall clocks, the global math/rand stream,
// goroutine-count-dependent branches, and map-iteration order feeding
// an output sink are all rejected at vet time.
package nodeterminism

import (
	"go/ast"
	"go/types"

	"contender/internal/analysis"
)

// ScopedPackages are the repo-relative packages the analyzer applies
// to: the simulator and experiment harness (all collection), and core
// (persistence/fingerprint paths and the serving pipeline).
var ScopedPackages = []string{
	"internal/sim",
	"internal/experiments",
	"internal/core",
}

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "forbid nondeterminism (time.Now, obs.Mono, global math/rand, goroutine-count branches, " +
		"map-range into output sinks) in the deterministic collection packages",
	Run: run,
}

// bannedFuncs maps package path -> function name -> replacement advice.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "derive timestamps from the campaign seed or virtual clock",
		"Since": "durations must come from the simulator's virtual clock",
		"Until": "durations must come from the simulator's virtual clock",
	},
	"runtime": {
		"NumGoroutine": "output must not depend on scheduling width",
		"NumCPU":       "output must not depend on host parallelism",
	},
	"os": {
		"Getpid": "process identity is nondeterministic across runs",
	},
}

// bannedObsFuncs are the clock reads of this module's observability
// package (matched by path suffix, like ScopedPackages): obs.Mono is a
// monotonic clock, as nondeterministic as time.Since.
var bannedObsFuncs = map[string]string{
	"Mono": "durations must come from the simulator's virtual clock",
}

// obsPackage is the repo-relative path of the observability package.
const obsPackage = "internal/obs"

// randAllowed lists the math/rand top-level functions that do NOT draw
// from the shared global stream (seeded constructors are the required
// idiom; everything else at package level is banned).
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func inScope(pkgPath string) bool {
	for _, p := range ScopedPackages {
		if analysis.PathMatches(pkgPath, p) {
			return true
		}
	}
	return false
}

// calleeObject resolves a call's callee to its types.Object when the
// callee is a plain identifier or selector (pkg.F or x.M).
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	obj := calleeObject(pass, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods (e.g. a seeded
	// *rand.Rand's Float64) are deterministic given their receiver.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	advice, ok := bannedFuncs[pkgPath][name]
	if !ok && analysis.PathMatches(pkgPath, obsPackage) {
		advice, ok = bannedObsFuncs[name]
	}
	if ok {
		pass.Reportf(call.Pos(), "call to %s.%s breaks the deterministic-collection invariant (%s)", pkgPath, name, advice)
		return
	}
	if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randAllowed[name] {
		pass.Reportf(call.Pos(), "global %s.%s draws from a shared nondeterministic stream; use a seeded *rand.Rand (sim.DeriveSeed)", pkgPath, name)
	}
}

// sinkMethods are methods that commit bytes to an output or hash in
// call order; reaching one from inside a map range makes the artifact
// order-dependent.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Sum": true, "Sum64": true, "Sum32": true,
}

// sinkFmtFuncs are fmt functions that emit to a writer or the process
// streams.
var sinkFmtFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// checkMapRange reports `for … range m` over a map whose body writes to
// an output sink: the iteration order — and therefore the artifact —
// differs run to run. Ranges that only accumulate into resortable
// collections (append then sort) are fine and not flagged.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(pass, call)
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		via := ""
		switch {
		case fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && sinkFmtFuncs[fn.Name()]:
			via = "fmt." + fn.Name()
		case fn.Type().(*types.Signature).Recv() != nil && sinkMethods[fn.Name()]:
			via = fn.Name()
		default:
			return true
		}
		reported = true
		pass.Reportf(rng.Pos(), "map iteration order is nondeterministic and this range writes to an output via %s; iterate sorted keys instead", via)
		return false
	})
}
