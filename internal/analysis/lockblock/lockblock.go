// Package lockblock forbids holding a mutex across a blocking call in
// the serving stack (internal/serve, internal/lifecycle,
// internal/store). A shard, connection, or lifecycle step that parks on
// a channel, a WaitGroup, or an observer emission while holding a lock
// serializes the whole data plane behind one waiter — the exact class
// of stall the serving layer's lock discipline exists to prevent.
//
// Blocking constructs: channel send/receive, select without a default
// clause, range over a channel, sync.WaitGroup.Wait, sync.Cond.Wait,
// time.Sleep, observer emissions (the Event method of any internal/obs
// type: Observer, Sink, or a concrete observer), and any call whose
// callee accepts a context.Context (blocking by convention — it was
// given a cancellation handle for a reason).
//
// Lock regions are paired lexically: a sync.Mutex/RWMutex Lock/RLock
// opens a region that the nearest subsequent Unlock/RUnlock of the same
// receiver closes; `defer mu.Unlock()` holds the lock to the end of the
// function. Early-unlock branches therefore produce false negatives,
// never false positives. Deliberate hold-across-block designs (the
// lifecycle control plane serializes retrains under its mutex by
// contract) carry a //contender:allow lockblock waiver with the reason.
package lockblock

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
	"internal/store",
}

// Analyzer is the lockblock check.
var Analyzer = &analysis.Analyzer{
	Name: "lockblock",
	Doc:  "no mutex held across a blocking call or observer emission in serve/lifecycle/store",
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
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// event is one lexically ordered lock/unlock/block occurrence.
type event struct {
	pos  token.Pos
	kind int    // eLock, eUnlock, eBlock
	key  string // receiver expression for lock/unlock pairing
	read bool   // RLock/RUnlock
	desc string // human description for block events
	def  bool   // unlock inside a defer (holds to function end)
}

const (
	eLock = iota
	eUnlock
	eBlock
)

// checkFunc analyzes one function body (function literals are analyzed
// separately — a closure's body runs on its own goroutine's schedule,
// not inside the enclosing lock region, and when it does run inline the
// per-literal analysis still covers it).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, n.Body)
			return false
		case *ast.DeferStmt:
			if kind, key, read, ok := lockOp(pass, n.Call); ok && kind == eUnlock {
				events = append(events, event{pos: n.Pos(), kind: eUnlock, key: key, read: read, def: true})
			}
			// Other deferred calls run at return, outside every region
			// closed by then; don't scan them as in-region blocks.
			return false
		case *ast.SendStmt:
			events = append(events, event{pos: n.Pos(), kind: eBlock, desc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				events = append(events, event{pos: n.Pos(), kind: eBlock, desc: "channel receive"})
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				events = append(events, event{pos: n.Pos(), kind: eBlock, desc: "select"})
			}
			// Case bodies still execute in-region; comm ops of a
			// defaulted select are non-blocking, so walk only bodies.
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					events = append(events, event{pos: n.Pos(), kind: eBlock, desc: "range over channel"})
				}
			}
		case *ast.CallExpr:
			if kind, key, read, ok := lockOp(pass, n); ok {
				events = append(events, event{pos: n.Pos(), kind: kind, key: key, read: read})
				return true
			}
			if desc, ok := blockingCall(pass, n); ok {
				events = append(events, event{pos: n.Pos(), kind: eBlock, desc: desc})
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	// Events arrive in traversal order, which is lexical order for a
	// single body. Pair each lock with the nearest matching unlock.
	for i, ev := range events {
		if ev.kind != eLock {
			continue
		}
		end := body.End()
		for _, later := range events[i+1:] {
			if later.kind == eUnlock && later.key == ev.key && later.read == ev.read && !later.def {
				end = later.pos
				break
			}
		}
		for _, later := range events[i+1:] {
			if later.pos >= end {
				break
			}
			if later.kind == eBlock {
				lockName := ev.key + lockSuffix(ev.read)
				pass.Reportf(later.pos, "%s is held across this %s; unlock before blocking, or waive with //contender:allow lockblock -- <reason> if the hold is by design", lockName, later.desc)
			}
		}
	}
}

func lockSuffix(read bool) string {
	if read {
		return ".RLock"
	}
	return ".Lock"
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockOp classifies a call as a sync mutex lock or unlock, returning
// the pairing key (the receiver expression, printed).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (kind int, key string, read, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, "", false, false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, "", false, false
	}
	switch fn.Name() {
	case "Lock":
		kind, read = eLock, false
	case "RLock":
		kind, read = eLock, true
	case "Unlock":
		kind, read = eUnlock, false
	case "RUnlock":
		kind, read = eUnlock, true
	default:
		return 0, "", false, false
	}
	// Cond.Wait is a block, not a lock op; Cond has no Lock method, so
	// reaching here means Mutex or RWMutex.
	return kind, types.ExprString(sel.X), read, true
}

// blockingCall classifies a call as blocking: WaitGroup/Cond Wait,
// time.Sleep, observer emissions, and context-accepting callees.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch {
		case pkg.Path() == "sync" && fn.Name() == "Wait":
			return "sync." + recvTypeName(fn) + ".Wait", true
		case pkg.Path() == "time" && fn.Name() == "Sleep":
			return "time.Sleep", true
		case fn.Name() == "Event" && recvTypeName(fn) != "" && analysis.PathMatches(pkg.Path(), "internal/obs"):
			return "observer emission (" + recvTypeName(fn) + ".Event)", true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if named, ok := sig.Params().At(i).Type().(*types.Named); ok &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context" {
				return "context-accepting call " + fn.Name(), true
			}
		}
	}
	return "", false
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
