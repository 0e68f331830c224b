// Package analysis is Contender's static-analysis toolkit: a small,
// dependency-free subset of the golang.org/x/tools/go/analysis API plus
// the loader, allowlist-directive engine, and driver glue shared by
// cmd/contender-vet and the analyzer golden tests.
//
// The module is built hermetically (no network, no module cache), so
// x/tools cannot be pinned in go.mod; this package reimplements the
// pieces the suite needs — Analyzer, Pass, Diagnostic, a go/types
// loader, and the `go vet -vettool` unit-checker protocol — against the
// standard library only. The API mirrors x/tools deliberately: if the
// dependency ever becomes available, each analyzer ports by changing
// one import path.
//
// # Escape hatch
//
// A diagnostic is suppressed by an allowlist directive:
//
//	//contender:allow <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the offending line, on the line directly above it, or in
// the doc comment of the enclosing function (which suppresses for the
// whole function). The reason string is mandatory; a directive without
// one is itself a diagnostic that cannot be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors
// x/tools/go/analysis.Analyzer minus facts and requires (the suite's
// analyzers are independent and fact-free).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //contender:allow directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by contender-vet -help;
	// its first line states the enforced invariant.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // analyzer name; "directive" for malformed directives
	Message  string
}

// Report records a diagnostic against the pass's analyzer.
func (p *Pass) Report(pos token.Pos, message string) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: message})
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// PathMatches reports whether a package import path denotes the named
// repo-relative package: either exactly (testdata packages use bare
// paths like "internal/sim") or as a path suffix ("contender/internal/sim").
func PathMatches(pkgPath, name string) bool {
	return pkgPath == name || strings.HasSuffix(pkgPath, "/"+name)
}

// directiveRe matches the allowlist directive. The analyzer list is
// comma-separated; everything after " -- " is the mandatory reason.
var directiveRe = regexp.MustCompile(`^//contender:allow\s+([A-Za-z0-9_,]+)\s*(?:--\s*(.*))?$`)

// directive is one parsed //contender:allow comment.
type directive struct {
	pos       token.Pos
	analyzers map[string]bool
	reason    string
	line      int    // line the directive comment sits on
	funcScope [2]int // when inside a func doc comment: [startLine, endLine] of the func body; zero otherwise
	file      string
}

// directiveSet holds every directive of one package plus the
// diagnostics produced by malformed ones.
type directiveSet struct {
	byFile map[string][]directive
	// Malformed holds "missing reason" diagnostics; they are not
	// suppressible.
	Malformed []Diagnostic
}

// parseDirectives scans the files' comments for //contender:allow
// directives, attaching function scope when the directive lives in a
// FuncDecl doc comment.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byFile: make(map[string][]directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//contender:allow") {
					continue
				}
				pos := c.Slash
				position := fset.Position(pos)
				m := directiveRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					ds.Malformed = append(ds.Malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "//contender:allow directive requires a reason: `//contender:allow <analyzer> -- <reason>`",
					})
					continue
				}
				d := directive{
					pos:       pos,
					analyzers: make(map[string]bool),
					reason:    strings.TrimSpace(m[2]),
					line:      position.Line,
					file:      position.Filename,
				}
				for _, name := range strings.Split(m[1], ",") {
					d.analyzers[strings.TrimSpace(name)] = true
				}
				ds.byFile[d.file] = append(ds.byFile[d.file], d)
			}
		}
		// A directive whose line falls inside a FuncDecl's doc comment
		// governs that whole function.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			docStart := fset.Position(fd.Doc.Pos()).Line
			docEnd := fset.Position(fd.Doc.End()).Line
			file := fset.Position(fd.Pos()).Filename
			dirs := ds.byFile[file]
			for i := range dirs {
				if dirs[i].line >= docStart && dirs[i].line <= docEnd {
					dirs[i].funcScope = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
				}
			}
		}
	}
	return ds
}

// allows reports whether a diagnostic from the named analyzer at
// file:line is suppressed by some directive.
func (ds *directiveSet) allows(analyzer, file string, line int) bool {
	for _, d := range ds.byFile[file] {
		if !d.analyzers[analyzer] {
			continue
		}
		if d.line == line || d.line == line-1 {
			return true
		}
		if d.funcScope != [2]int{} && line >= d.funcScope[0] && line <= d.funcScope[1] {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by position then analyzer name.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
