package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const directiveSrc = `package p

import "time"

func SameLine() {
	_ = time.Now() //contender:allow lockblock -- golden test: the hold is by design
}

func LineAbove() {
	//contender:allow lockblock -- golden test: the hold is by design
	_ = time.Now()
}

//contender:allow lockblock -- golden test: the whole function holds by design
func FuncScoped() {
	_ = time.Now()
	_ = time.Now()
}

//contender:allow lockblock,goroleak -- both invariants waived here
func MultiAnalyzer() {
	_ = time.Now()
}

func MissingReason() {
	_ = time.Now() //contender:allow lockblock
}

func EmptyReason() {
	_ = time.Now() //contender:allow lockblock --
}

func Unrelated() {
	_ = time.Now()
}
`

func parseDirectiveSrc(t *testing.T) (*token.FileSet, *directiveSet, map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// Record the source line of each function's first time.Now call by
	// scanning the raw text, so the assertions don't hard-code line
	// numbers.
	lines := map[string]int{}
	var current string
	for i, l := range strings.Split(directiveSrc, "\n") {
		if strings.HasPrefix(l, "func ") {
			current = strings.TrimSuffix(strings.Fields(l)[1], "()")
		}
		if strings.Contains(l, "time.Now()") {
			if _, seen := lines[current]; !seen {
				lines[current] = i + 1
			}
			lines[current+"/last"] = i + 1
		}
	}
	return fset, parseDirectives(fset, []*ast.File{f}), lines
}

func TestDirectiveScopes(t *testing.T) {
	fset, ds, lines := parseDirectiveSrc(t)
	_ = fset
	cases := []struct {
		name     string
		analyzer string
		line     int
		want     bool
	}{
		{"SameLine", "lockblock", lines["SameLine"], true},
		{"LineAbove", "lockblock", lines["LineAbove"], true},
		{"FuncScoped first stmt", "lockblock", lines["FuncScoped"], true},
		{"FuncScoped last stmt", "lockblock", lines["FuncScoped/last"], true},
		{"MultiAnalyzer lockblock", "lockblock", lines["MultiAnalyzer"], true},
		{"MultiAnalyzer goroleak", "goroleak", lines["MultiAnalyzer"], true},
		{"MultiAnalyzer other analyzer", "errtaxonomy", lines["MultiAnalyzer"], false},
		{"Unrelated", "lockblock", lines["Unrelated"], false},
		{"SameLine wrong analyzer", "goroleak", lines["SameLine"], false},
		{"Malformed does not suppress", "lockblock", lines["MissingReason"], false},
	}
	for _, c := range cases {
		if got := ds.allows(c.analyzer, "p.go", c.line); got != c.want {
			t.Errorf("%s: allows(%s, line %d) = %v, want %v", c.name, c.analyzer, c.line, got, c.want)
		}
	}
}

func TestMalformedDirectives(t *testing.T) {
	fset, ds, _ := parseDirectiveSrc(t)
	if len(ds.Malformed) != 2 {
		for _, d := range ds.Malformed {
			t.Logf("malformed at %s: %s", fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("got %d malformed-directive diagnostics, want 2 (missing reason, empty reason)", len(ds.Malformed))
	}
	for _, d := range ds.Malformed {
		if d.Analyzer != "directive" {
			t.Errorf("malformed directive attributed to %q, want \"directive\"", d.Analyzer)
		}
		if !strings.Contains(d.Message, "requires a reason") {
			t.Errorf("malformed directive message %q does not name the missing reason", d.Message)
		}
	}
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pkgPath, name string
		want          bool
	}{
		{"contender/internal/sim", "internal/sim", true},
		{"internal/sim", "internal/sim", true},
		{"a/internal/sim", "internal/sim", true},
		{"contender/internal/simx", "internal/sim", false},
		{"contender/xinternal/sim", "internal/sim", false},
		{"contender", "contender", true},
	}
	for _, c := range cases {
		if got := PathMatches(c.pkgPath, c.name); got != c.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", c.pkgPath, c.name, got, c.want)
		}
	}
}
