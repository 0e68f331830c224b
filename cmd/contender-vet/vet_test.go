package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles contender-vet once per test binary into a temp dir.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "contender-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building contender-vet: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module with deliberately injected
// invariant violations in a scoped package.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

var injectedModule = map[string]string{
	"go.mod": "module fake\n\ngo 1.22\n",
	"internal/serve/serve.go": `package serve

import "sync"

type Server struct {
	mu sync.Mutex
	ch chan int
}

func (s *Server) Hand(n int) {
	s.mu.Lock()
	s.ch <- n
	s.mu.Unlock()
}
`,
	"internal/experiments/exp.go": `package experiments

import "fmt"

func Leaf(n int) error { return fmt.Errorf("no samples at MPL %d", n) }
`,
}

func TestInjectedViolationsFail(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, injectedModule)

	cmd := exec.Command(bin, "-C", dir, "./...")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on injected violations, got err=%v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	out := stdout.String()
	for _, want := range []string{
		"lockblock: s.mu.Lock is held across this channel send",
		"errtaxonomy: fmt.Errorf without %w",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnostics missing %q; got:\n%s", want, out)
		}
	}
	// Diagnostics must name the analyzer (the invariant) so CI failures
	// are self-explanatory.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "lockblock:") && !strings.Contains(line, "errtaxonomy:") {
			t.Errorf("diagnostic line does not name its analyzer: %q", line)
		}
	}
}

func TestAllowDirectiveSuppresses(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.22\n",
		"internal/experiments/exp.go": `package experiments

import "fmt"

func Leaf(n int) error {
	return fmt.Errorf("no samples at MPL %d", n) //contender:allow errtaxonomy -- injected: the caller classifies it
}
`,
	})
	out, err := exec.Command(bin, "-C", dir, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("want clean run with allow directive, got %v\n%s", err, out)
	}
}

func TestMissingReasonIsNotSuppressible(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.22\n",
		"internal/experiments/exp.go": `package experiments

import "fmt"

func Leaf(n int) error {
	return fmt.Errorf("no samples at MPL %d", n) //contender:allow errtaxonomy
}
`,
	})
	cmd := exec.Command(bin, "-C", dir, "./...")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on reasonless directive, got err=%v\n%s", err, &stdout)
	}
	out := stdout.String()
	if !strings.Contains(out, "directive: //contender:allow directive requires a reason") {
		t.Errorf("missing malformed-directive diagnostic; got:\n%s", out)
	}
	if !strings.Contains(out, "errtaxonomy: fmt.Errorf without %w") {
		t.Errorf("reasonless directive must not suppress the underlying diagnostic; got:\n%s", out)
	}
}

func TestGoVetVettool(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, injectedModule)

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("want go vet failure on injected violations, got success:\n%s", out)
	}
	for _, want := range []string{"held across this channel send", "fmt.Errorf without %w"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output missing %q; got:\n%s", want, out)
		}
	}
}

// TestStaticcheckCatchesInjectedSA verifies the shipped
// staticcheck.conf scope: the SA correctness family must fire on an
// injected violation in a serving-stack-shaped package. Skipped when
// the staticcheck binary is not installed (the CI staticcheck job
// installs it; contender-vet's own analyzers cover the repo-specific
// invariants either way).
func TestStaticcheckCatchesInjectedSA(t *testing.T) {
	scPath, err := exec.LookPath("staticcheck")
	if err != nil {
		t.Skip("staticcheck not on PATH; the CI staticcheck job installs it")
	}
	conf, err := os.ReadFile(filepath.Join("..", "..", "staticcheck.conf"))
	if err != nil {
		t.Fatalf("reading repo staticcheck.conf: %v", err)
	}
	dir := writeModule(t, map[string]string{
		"go.mod":           "module fake\n\ngo 1.22\n",
		"staticcheck.conf": string(conf),
		"internal/serve/leak.go": `package serve

import "fmt"

// Frame drops its first assignment unread (SA4006) and mismatches the
// format string (SA5009): both must fail under the shipped config.
func Frame(n int) string {
	s := fmt.Sprintf("frame")
	s = fmt.Sprintf("frame %d %d", n)
	return s
}
`,
	})
	cmd := exec.Command(scPath, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("want staticcheck failure on injected SA violations, got success:\n%s", out)
	}
	if !strings.Contains(string(out), "SA") {
		t.Errorf("staticcheck output names no SA check; got:\n%s", out)
	}
}

// TestOnlyRejectsUnknownNames pins -only's contract: every name must
// be an analyzer in the suite. A typo or a deleted analyzer exits 1
// naming it instead of silently running a smaller subset.
func TestOnlyRejectsUnknownNames(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, injectedModule)

	for _, only := range []string{"wirecompat,nosuchcheck", "lockblok", "errtaxonomy,"} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-C", dir, "-only", only, "./...")
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("-only %q: want exit 1, got err=%v\n%s", only, err, &stderr)
			continue
		}
		if !strings.Contains(stderr.String(), "unknown analyzer") {
			t.Errorf("-only %q: stderr does not name the unknown analyzer:\n%s", only, &stderr)
		}
	}

	// A known subset runs just those analyzers.
	cmd := exec.Command(bin, "-C", dir, "-only", "errtaxonomy,wirecompat", "./...")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("-only errtaxonomy,wirecompat: want exit 2, got err=%v\n%s", err, &stdout)
	}
	out := stdout.String()
	if !strings.Contains(out, "errtaxonomy:") || strings.Contains(out, "lockblock:") {
		t.Errorf("-only errtaxonomy,wirecompat ran the wrong analyzers; got:\n%s", out)
	}
}

// TestWireFieldRemovalFails deletes a locked v1 wire field from the
// source: wirecompat must flag the contract break against wire.lock.
func TestWireFieldRemovalFails(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"go.mod":                 "module fake\n\ngo 1.22\n",
		"internal/serve/wire.go": "package serve\n\nconst Version = 1\n\ntype PredictRequest struct {\n\tPrimary int `json:\"primary\"`\n}\n",
		"internal/serve/wire.lock": `schema v1
const Version untyped int = 1
field PredictRequest.Gone string json:"gone"
field PredictRequest.Primary int json:"primary"
struct PredictRequest
`,
	})

	cmd := exec.Command(bin, "-C", dir, "./...")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on removed wire field, got err=%v\n%s", err, &stdout)
	}
	out := stdout.String()
	if !strings.Contains(out, "wirecompat: wire contract entry removed: field PredictRequest.Gone") {
		t.Errorf("missing wirecompat removal diagnostic; got:\n%s", out)
	}
}

func TestGoVetVettoolCleanModule(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

func Step(seed int64) int64 { return seed*6364136223846793005 + 1442695040888963407 }
`,
	})
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("want clean go vet run, got %v:\n%s", err, out)
	}
}
