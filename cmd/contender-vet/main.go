// Command contender-vet runs Contender's invariant analyzers over the
// module. It works two ways:
//
//	contender-vet ./...                     # standalone, from the module root
//	go vet -vettool=$(which contender-vet) ./...
//
// The suite enforces the invariants the reproduction rests on:
//
//	errtaxonomy    transient/permanent/corrupt error classification
//	ctxplumb       exported ctx-accepting functions plumb ctx through
//	lockblock      no mutex held across a blocking call or observer emission
//	goroleak       serve/lifecycle goroutines tie to WaitGroup/done/ctx
//	wirecompat     the v1 wire surface matches internal/serve/wire.lock
//
// Suppress a diagnostic with a reasoned allowlist directive:
//
//	//contender:allow lockblock -- the control-plane mutex serializes retrains by design
//
// Regenerate the wire contract lock after a deliberate schema change:
//
//	contender-vet -write-wire-lock
//
// Exit status: 0 clean, 1 usage/load failure, 2 diagnostics reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"contender/internal/analysis"
	"contender/internal/analysis/ctxplumb"
	"contender/internal/analysis/errtaxonomy"
	"contender/internal/analysis/goroleak"
	"contender/internal/analysis/lockblock"
	"contender/internal/analysis/wirecompat"
)

// Suite is the full analyzer set, in diagnostic-priority order.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errtaxonomy.Analyzer,
		ctxplumb.Analyzer,
		lockblock.Analyzer,
		goroleak.Analyzer,
		wirecompat.Analyzer,
	}
}

// writeWireLock regenerates internal/serve/wire.lock from the current
// wire declarations.
func writeWireLock(dir string) error {
	pkgs, err := analysis.Load(dir, "./"+wirecompat.ScopedPackage)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		if !analysis.PathMatches(pkg.PkgPath, wirecompat.ScopedPackage) {
			continue
		}
		if pkg.TypeError != nil {
			return fmt.Errorf("typechecking %s: %w", pkg.PkgPath, pkg.TypeError)
		}
		version, entries, _ := wirecompat.Fingerprint(pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo)
		if len(entries) == 0 {
			return fmt.Errorf("%s declares no wire surface", pkg.PkgPath)
		}
		path := filepath.Join(pkg.Dir, wirecompat.LockFile)
		if err := os.WriteFile(path, []byte(wirecompat.Render(version, entries)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (schema v%s, %d entries)\n", path, version, len(entries))
		return nil
	}
	return fmt.Errorf("package %s not found under %s", wirecompat.ScopedPackage, dir)
}

func main() {
	analyzers := suite()

	// The go command probes the vettool before passing the real config:
	// -V=full asks for a version stamp, -flags for a JSON description of
	// supported analyzer flags (none). Answer both without touching the
	// real flag set.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			analysis.PrintVersion(os.Stdout, analyzers)
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}

	fs := flag.NewFlagSet("contender-vet", flag.ExitOnError)
	dir := fs.String("C", ".", "module directory to analyze from")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	wireLock := fs.Bool("write-wire-lock", false, "regenerate internal/serve/wire.lock from the current wire declarations and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: contender-vet [-C dir] [-only names] [-write-wire-lock] [packages]\n")
		fmt.Fprintf(fs.Output(), "       go vet -vettool=$(which contender-vet) ./...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *wireLock {
		if err := writeWireLock(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "contender-vet: -write-wire-lock: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for name := range keep {
				unknown = append(unknown, fmt.Sprintf("%q", name))
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "contender-vet: -only names unknown analyzer(s) %s (see -list)\n", strings.Join(unknown, ", "))
			os.Exit(1)
		}
		analyzers = filtered
	}

	args := fs.Args()
	if analysis.IsVetConfig(args) {
		// go vet -vettool protocol: one package per invocation, config
		// file as the sole argument.
		os.Exit(analysis.UnitcheckMain(os.Stderr, analyzers, args[0]))
	}

	count, err := analysis.Main(os.Stdout, *dir, analyzers, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contender-vet: %v\n", err)
		os.Exit(1)
	}
	if count > 0 {
		fmt.Fprintf(os.Stderr, "contender-vet: %d diagnostic(s)\n", count)
		os.Exit(2)
	}
}
