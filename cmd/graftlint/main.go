// Command graftlint runs the repo's static analysis suite
// (internal/analysis) over the module and reports findings with
// file:line diagnostics. Its six checks cover what neither go vet,
// go test -race nor the tests' leak gate catches: cache-line padding of
// per-worker state, context propagation of the resilient entry points,
// error/panic hygiene, hot-path allocation, and the protocol rules of the
// distributed runtime (exhaustive frame dispatch, cancellable goroutine
// channel ops).
//
// Usage:
//
//	graftlint [-json] [-checks a,b,c] [-list] [-C dir] [-suppressions] [packages]
//
// Package patterns are module-relative ("./...", "./internal/queue",
// "internal/par/..."); with none given the whole module is checked.
// -checks selects a comma-separated subset by name. The exit status is 0
// when clean, 1 when findings were reported, 2 on usage or load errors.
// Findings are suppressed per line with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// -suppressions reports the //lint:ignore ledger — directive counts per
// check and file, plus every directive that silenced nothing in the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"graftmatch/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graftlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list available checks and exit")
	dirFlag := fs.String("C", "", "module root directory (default: nearest go.mod at or above the working directory)")
	suppressionsFlag := fs.Bool("suppressions", false, "report //lint:ignore directives per check and file, flagging any that silence nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: graftlint [-json] [-checks a,b,c] [-list] [-C dir] [-suppressions] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	root := *dirFlag
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
		root = findModuleRoot(wd)
		if root == "" {
			fmt.Fprintf(stderr, "graftlint: no go.mod found at or above %s\n", wd)
			return 2
		}
	}

	prog, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "graftlint: %v\n", err)
		return 2
	}
	diags, err := prog.Run(parseChecks(*checksFlag))
	if err != nil {
		fmt.Fprintf(stderr, "graftlint: %v\n", err)
		return 2
	}
	diags = filterPatterns(diags, root, fs.Args(), stderr)

	if *suppressionsFlag {
		reportSuppressions(stdout, root, prog.Suppressions())
		return 0
	}
	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File: relTo(root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// parseChecks splits the -checks flag into check names; nil means "all
// checks". Unknown names are rejected by the analysis run.
func parseChecks(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// findModuleRoot ascends from dir to the nearest directory with a go.mod.
func findModuleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// relTo renders path relative to root when possible, for stable output.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// filterPatterns keeps the diagnostics whose file falls under one of the
// module-relative package patterns. An empty pattern list, "./...", or the
// bare module pattern keeps everything.
func filterPatterns(diags []analysis.Diagnostic, root string, patterns []string, stderr io.Writer) []analysis.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keepAll := false
	type rule struct {
		dir       string // slash-form relative dir, "" = root
		recursive bool
	}
	var rules []rule
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		p = strings.TrimPrefix(p, "./")
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
		}
		if p == "" || p == "." {
			if recursive {
				keepAll = true
			}
			p = "."
		}
		rules = append(rules, rule{dir: p, recursive: recursive})
	}
	if keepAll {
		return diags
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		rel := filepath.ToSlash(relTo(root, d.Pos.Filename))
		dir := "."
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		for _, r := range rules {
			if dir == r.dir || (r.recursive && strings.HasPrefix(dir, r.dir+"/")) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
