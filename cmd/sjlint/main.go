// Command sjlint is the repository's static-analysis driver. It loads the
// named packages (default ./...), type-checks them with the standard
// library's go/parser + go/types, and runs the domain-specific analyzers
// from internal/analysis concurrently over each package:
//
//	floateq        no raw ==/!= on float geometry values
//	statsreset     experiment binaries reset I/O counters before a snapshot
//	thetapair      every θ-operator declares its Θ filter, a Name and a registry entry
//	lockbalance    manual Lock/Unlock balance; no double-lock
//	spanclose      obs spans are ended on every outcome
//	semrelease     admission tokens are released on every path
//	txnatomic      a WAL transaction reaches Commit or Abort on every path
//
// Findings can be suppressed with a trailing or preceding line comment:
//
//	//sjlint:ignore analyzer[,analyzer] reason...
//
// The reason is required in spirit: a directive without one still
// suppresses, but sjlint prints a warning for each bare directive.
//
// With -tests, each package's _test.go files are analyzed too (both
// in-package and external foo_test files); analyzers marked as
// production-only disciplines skip test files automatically.
//
// Exit codes are machine-readable: 0 = clean, 1 = findings reported,
// 2 = usage, load, or type-check failure.
//
// Usage:
//
//	go run ./cmd/sjlint [-list] [-run names] [-tests] [-json] [packages...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"spatialjoin/internal/analysis"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sjlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		list     = flags.Bool("list", false, "list available analyzers and exit")
		runOnly  = flags.String("run", "", "comma-separated subset of analyzers to run (default: all)")
		asJSON   = flags.Bool("json", false, "emit a JSON report (diagnostics, suppression counts, warnings)")
		withTest = flags.Bool("tests", false, "also analyze _test.go files")
	)
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: sjlint [-list] [-run names] [-tests] [-json] [packages...]")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return exitError
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *runOnly != "" {
		var err error
		analyzers, err = analysis.ByName(*runOnly)
		if err != nil {
			fmt.Fprintf(stderr, "sjlint: %v\n", err)
			return exitError
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "sjlint: %v\n", err)
		return exitError
	}
	loader.IncludeTests = *withTest
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "sjlint: %v\n", err)
		return exitError
	}

	cwd, _ := os.Getwd()
	var all []analysis.Diagnostic
	suppressed := make(map[string]int)
	var bare []string
	for _, pkg := range pkgs {
		res := analysis.RunAll(pkg, analyzers)
		all = append(all, res.Diagnostics...)
		for name, n := range res.Suppressed {
			suppressed[name] += n
		}
		for _, pos := range res.BareDirectives {
			bare = append(bare, fmt.Sprintf("%s:%d", relPath(cwd, pos.Filename), pos.Line))
		}
	}
	sort.Strings(bare)
	warnings := make([]string, 0, len(bare))
	for _, at := range bare {
		warnings = append(warnings, fmt.Sprintf("%s: //sjlint:ignore without a justification; add a reason after the analyzer list", at))
	}

	if *asJSON {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		type report struct {
			Diagnostics []jsonDiag     `json:"diagnostics"`
			Suppressed  map[string]int `json:"suppressed"`
			Warnings    []string       `json:"warnings"`
		}
		rep := report{
			Diagnostics: make([]jsonDiag, 0, len(all)),
			Suppressed:  suppressed,
			Warnings:    warnings,
		}
		for _, d := range all {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
				File:     relPath(cwd, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "sjlint: %v\n", err)
			return exitError
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	// Warnings are advisory: they go to stderr and do not affect the exit
	// code, so a justified-but-terse tree still gates on findings alone.
	for _, w := range warnings {
		fmt.Fprintf(stderr, "sjlint: warning: %s\n", w)
	}

	if len(all) > 0 {
		return exitFindings
	}
	return exitClean
}

// relPath shortens abs to a path relative to base when that is tidier.
func relPath(base, abs string) string {
	if base == "" {
		return abs
	}
	rel, err := filepath.Rel(base, abs)
	if err != nil || len(rel) >= len(abs) {
		return abs
	}
	return rel
}
