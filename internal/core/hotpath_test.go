package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"contender/internal/analysis/hotpathalloc"
)

// servingGuardSet names the exported serving entry points whose 0
// allocs/op is asserted by TestServingPathDoesNotAllocate. The
// //contender:hotpath markers (checked statically by contender-vet's
// hotpathalloc analyzer) and this bench guard must cover the same
// exported set: a function guarded but unmarked gets no static check,
// a function marked but unguarded gets no runtime proof.
var servingGuardSet = map[string]bool{
	"CQI":            true,
	"PositiveIO":     true,
	"BaselineIO":     true,
	"PredictKnown":   true,
	"PredictBatch":   true,
	"PredictExplain": true,
	"Feedback":       true,
	// Shard handles (shard.go), kept for the serving benchmark's
	// ladder: prediction, batch, blame decomposition and feedback.
	"Predict":      true,
	"BatchPredict": true,
	"Observe":      true,
	"Explain":      true,
}

func TestHotpathMarkersMatchAllocGuard(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatal("no package files parsed")
	}

	exported := map[string]bool{}
	var unexported []string
	for _, name := range hotpathalloc.MarkedFuncs(files) {
		base := name[strings.LastIndex(name, ".")+1:]
		if ast.IsExported(base) {
			if exported[base] {
				t.Errorf("duplicate //contender:hotpath marker for %s", name)
			}
			exported[base] = true
		} else {
			unexported = append(unexported, name)
		}
	}

	for want := range servingGuardSet {
		if !exported[want] {
			t.Errorf("%s is covered by TestServingPathDoesNotAllocate but has no //contender:hotpath marker", want)
		}
	}
	for got := range exported {
		if !servingGuardSet[got] {
			t.Errorf("%s carries a //contender:hotpath marker but is not covered by TestServingPathDoesNotAllocate; add it to the bench guard", got)
		}
	}
	// Unexported helpers (prediction bodies, index lookups) may carry
	// markers for static coverage without their own bench-guard entry —
	// they run inside the guarded entry points. Just require there to be
	// some: the hot path's real work lives in them.
	if len(unexported) == 0 {
		t.Error("no unexported //contender:hotpath helpers found; the prediction bodies should be marked")
	}
}
