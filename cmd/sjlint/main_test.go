package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialjoin/internal/analysis"
)

// The command's contract is exercised on throwaway modules that import only
// sync, so no test here loads the repository: linting the repository is
// internal/analysis's self-hosting gates' job, done once per test run.

// lockLeak renders a function whose early return leaves mu locked: one
// lockbalance finding, reported at the Lock, which directive (when not
// empty) sits on the line above.
func lockLeak(name, directive string) string {
	return fmt.Sprintf(`
func %s(mu *sync.Mutex, bad bool) {
	%s
	mu.Lock()
	if bad {
		return
	}
	mu.Unlock()
}
`, name, directive)
}

// balanced is a function that releases its lock on every path.
const balanced = `
func g(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
}
`

// source renders a file of package sample importing sync.
func source(body ...string) string {
	return "package sample\n\nimport \"sync\"\n" + strings.Join(body, "")
}

// inModule writes files into a fresh module and makes it the working
// directory until the test ends.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module sample\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitCodeContract verifies the machine-readable exit codes: 0 for a
// clean package, 1 with diagnostics on a dirty one, 2 for usage errors and
// for packages that do not type-check.
func TestExitCodeContract(t *testing.T) {
	inModule(t, map[string]string{
		"clean/clean.go": source(balanced),
		"dirty/dirty.go": source(lockLeak("f", "")),
		"broken/bad.go":  "package broken\n\nvar x int = \"not an int\"\n",
	})
	for _, c := range []struct {
		args   []string
		want   int
		stdout string
	}{
		{[]string{"./clean"}, exitClean, ""},
		{[]string{"./dirty"}, exitFindings, "dirty/dirty.go:7:2: lockbalance: "},
		{[]string{"./broken"}, exitError, ""},
		{[]string{"-run", "nosuch", "./clean"}, exitError, ""},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.want {
			t.Fatalf("sjlint %v = exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
				c.args, code, c.want, out.String(), errb.String())
		}
		if !strings.HasPrefix(out.String(), c.stdout) || (c.stdout == "") != (out.Len() == 0) {
			t.Fatalf("sjlint %v printed %q, want a line starting %q", c.args, out.String(), c.stdout)
		}
	}
}

// jsonReport mirrors the -json output shape.
type jsonReport struct {
	Diagnostics []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	} `json:"diagnostics"`
	Suppressed map[string]int `json:"suppressed"`
	Warnings   []string       `json:"warnings"`
}

// runJSON runs sjlint -json with args and decodes its report.
func runJSON(t *testing.T, wantCode int, args ...string) jsonReport {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-json"}, args...), &out, &errb); code != wantCode {
		t.Fatalf("sjlint -json %v = exit %d, want %d\nstderr:\n%s", args, code, wantCode, errb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return rep
}

// TestJSONOutput verifies the report object: each surviving diagnostic
// with its position, and the findings a justified directive swallowed,
// counted per analyzer.
func TestJSONOutput(t *testing.T) {
	inModule(t, map[string]string{"sample.go": source(
		lockLeak("f", ""),
		lockLeak("g", "//sjlint:ignore lockbalance the caller unlocks"),
	)})
	rep := runJSON(t, exitFindings, ".")
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Analyzer != "lockbalance" ||
		rep.Diagnostics[0].File != "sample.go" || rep.Diagnostics[0].Line != 7 {
		t.Fatalf("unexpected JSON diagnostics: %+v", rep.Diagnostics)
	}
	if rep.Suppressed["lockbalance"] != 1 || len(rep.Warnings) != 0 {
		t.Fatalf("suppressed %v, warnings %v; want one lockbalance suppression, no warning",
			rep.Suppressed, rep.Warnings)
	}
}

// TestTestsFlag verifies -tests extends analysis to _test.go files, while
// an analyzer marked production-only (floateq) still skips them.
func TestTestsFlag(t *testing.T) {
	inModule(t, map[string]string{
		"sample.go": source(balanced),
		"sample_test.go": source(lockLeak("f", ""), `
func exact(x float64) bool { return x == 0.5 }
`),
	})
	if rep := runJSON(t, exitClean, "."); len(rep.Diagnostics) != 0 {
		t.Fatalf("without -tests, test files were analyzed: %+v", rep.Diagnostics)
	}
	rep := runJSON(t, exitFindings, "-tests", ".")
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Analyzer != "lockbalance" ||
		rep.Diagnostics[0].File != "sample_test.go" {
		t.Fatalf("-tests: want the one lockbalance finding in sample_test.go, got %+v", rep.Diagnostics)
	}
}

// TestBareDirectiveWarning verifies an //sjlint:ignore with no written
// justification still suppresses but is warned about on stderr and in the
// JSON report.
func TestBareDirectiveWarning(t *testing.T) {
	inModule(t, map[string]string{"sample.go": source(lockLeak("f", "//sjlint:ignore lockbalance"))})

	var out, errb bytes.Buffer
	code := run([]string{"-run", "lockbalance", "."}, &out, &errb)
	if code != exitClean {
		t.Fatalf("bare directive must still suppress; exit %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "without a justification") {
		t.Fatalf("no warning for bare directive on stderr:\n%s", errb.String())
	}
	if rep := runJSON(t, exitClean, "."); len(rep.Warnings) != 1 {
		t.Fatalf("JSON report warnings = %v, want the bare directive", rep.Warnings)
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != exitClean {
		t.Fatalf("-list = exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	all := analysis.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(all), out.String())
	}
	for i, a := range all {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != a.Name {
			t.Errorf("-list line %d = %q, want analyzer %s and its doc", i, lines[i], a.Name)
		}
	}
}
