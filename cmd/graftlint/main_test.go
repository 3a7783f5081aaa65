package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graftmatch/internal/analysis"
)

// writeFixtureModule lays out a small module with one dirty package (two
// err-checked findings) and one clean package, and returns its root.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixmod\n\ngo 1.22\n",
		"dirty/dirty.go": `// Package dirty drops errors.
package dirty

import "errors"

func fail() error { return errors.New("boom") }

// Drop discards the error (finding 1).
func Drop() {
	fail()
}

// Explode panics outside the containment layer (finding 2).
func Explode() {
	panic("boom")
}
`,
		"clean/clean.go": `// Package clean is finding-free.
package clean

import "errors"

func fail() error { return errors.New("ok") }

// Handled propagates the error.
func Handled() error { return fail() }
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFindingsExitNonZero(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{
		"dirty/dirty.go:10:2: err-checked:",
		"dirty/dirty.go:15:2: err-checked:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "clean/clean.go") {
		t.Errorf("clean package reported:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2:\n%s", len(findings), out)
	}
	if findings[0].File != "dirty/dirty.go" || findings[0].Line != 10 || findings[0].Check != "err-checked" {
		t.Errorf("unexpected first finding: %+v", findings[0])
	}
	if findings[1].Line != 15 || findings[1].Message == "" {
		t.Errorf("unexpected second finding: %+v", findings[1])
	}
}

func TestChecksSelection(t *testing.T) {
	root := writeFixtureModule(t)
	// The fixture only has err-checked findings: selecting another check
	// must come back clean.
	code, out, _ := runLint(t, "-C", root, "-checks", "ctx-discipline,falseshare")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	code, out, _ = runLint(t, "-C", root, "-checks", "err-checked")
	if code != 1 || strings.Count(out, "err-checked") != 2 {
		t.Fatalf("exit = %d, want 1 with two err-checked findings; output:\n%s", code, out)
	}
}

// TestUnknownCheckIsUsageError covers a misspelled name and a "-name"
// entry: -checks only selects, so both are unknown checks.
func TestUnknownCheckIsUsageError(t *testing.T) {
	root := writeFixtureModule(t)
	for _, sel := range []string{"no-such-check", "-err-checked"} {
		code, _, errb := runLint(t, "-C", root, "-checks", sel)
		if code != 2 {
			t.Fatalf("-checks %s: exit = %d, want 2", sel, code)
		}
		if !strings.Contains(errb, "unknown check") {
			t.Errorf("-checks %s: stderr missing unknown-check message:\n%s", sel, errb)
		}
	}
}

func TestPatternFiltering(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "./clean/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 when only the clean package is selected; output:\n%s", code, out)
	}
	code, out, _ = runLint(t, "-C", root, "./dirty")
	if code != 1 || strings.Count(out, "err-checked") != 2 {
		t.Fatalf("exit = %d, want 1 with both findings for ./dirty; output:\n%s", code, out)
	}
	code, _, _ = runLint(t, "-C", root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for ./...", code)
	}
}

// TestListChecks requires -list to print exactly the registry, one check
// per line, in canonical order.
func TestListChecks(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if want := analysis.CheckNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-list printed %v, want %v:\n%s", got, want, out)
	}
}

// TestParseChecks pins the -checks grammar: a comma-separated list of
// names, blanks dropped, empty meaning all.
func TestParseChecks(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{name: "empty means all", in: "", want: nil},
		{name: "single", in: "err-checked", want: []string{"err-checked"}},
		{name: "spaces and commas", in: " err-checked , falseshare ,", want: []string{"err-checked", "falseshare"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseChecks(tc.in)
			if strings.Join(got, ",") != strings.Join(tc.want, ",") || (got == nil) != (tc.want == nil) {
				t.Fatalf("parseChecks(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	root := t.TempDir() // no go.mod
	code, _, errb := runLint(t, "-C", root)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errb)
	}
}

func TestRepoCleanViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runLint(t, "-C", root, "./...")
	if code != 0 {
		t.Fatalf("graftlint on the repo: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

// TestSuppressionsReport drives graftlint -suppressions over a module with
// one live directive and one stale one: the report must count both and list
// only the stale directive as silencing nothing, exiting 0 (the audit is a
// report, not a gate).
func TestSuppressionsReport(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module supmod\n\ngo 1.22\n",
		"a/a.go": `// Package a carries one live and one stale suppression.
package a

import "errors"

func fail() error { return errors.New("boom") }

// Drop is silenced by a live directive.
func Drop() {
	fail() //lint:ignore err-checked live: intentional drop for the report test
}

// Handled propagates the error; the directive above it is dead weight.
func Handled() error {
	//lint:ignore err-checked stale: the call below handles its error
	return fail()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errb := runLint(t, "-C", root, "-suppressions")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errb)
	}
	for _, want := range []string{
		"2 //lint:ignore directives in 1 file",
		"err-checked",
		"a/a.go",
		"silencing nothing",
		"a/a.go:15: err-checked — stale: the call below handles its error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-suppressions output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "live: intentional drop") {
		t.Errorf("live directive listed as stale:\n%s", out)
	}
}
