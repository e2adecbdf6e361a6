package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes type-checked packages (the standard library, the
// module's packages the fixtures import, and the whole module once
// moduleLint has walked it) across the test run.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches the trailing `// want "substring" ...` annotation of a
// fixture line; quoted substrings are extracted by quotedRe.
var (
	wantRe   = regexp.MustCompile(`// want (.+)$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

// fixtureWants parses the expected-diagnostic annotations of every file in
// the fixture package: map from file base name and line to the expected
// message substrings on that line.
func fixtureWants(t *testing.T, pkg *Package) map[string]map[int][]string {
	t.Helper()
	wants := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		path := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", path, err)
		}
		base := filepath.Base(path)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var subs []string
			for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
				subs = append(subs, q[1])
			}
			if len(subs) == 0 {
				t.Fatalf("%s:%d: want annotation without quoted substring", base, i+1)
			}
			if wants[base] == nil {
				wants[base] = make(map[int][]string)
			}
			wants[base][i+1] = subs
		}
	}
	return wants
}

// runGolden loads the fixture named after the analyzer, runs just that
// analyzer, and requires an exact correspondence between diagnostics and
// want annotations.
func runGolden(t *testing.T, a *Analyzer) { runGoldenFixture(t, a, a.Name) }

// runGoldenFixture is runGolden over the fixture directory name.
func runGoldenFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := fixtureWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", name)
	}
	diags := Run(pkg, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatalf("analyzer %s reported nothing on fixture %s", a.Name, name)
	}
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		subs := wants[base][d.Pos.Line]
		matched := -1
		for i, sub := range subs {
			if strings.Contains(d.Message, sub) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		// Consume the matched expectation so duplicates are caught.
		wants[base][d.Pos.Line] = append(subs[:matched], subs[matched+1:]...)
	}
	for base, lines := range wants {
		for line, subs := range lines {
			for _, sub := range subs {
				t.Errorf("%s:%d: expected diagnostic containing %q was not reported", base, line, sub)
			}
		}
	}
}

func TestFloatEqGolden(t *testing.T)     { runGolden(t, FloatEq) }
func TestStatsResetGolden(t *testing.T)  { runGolden(t, StatsReset) }
func TestThetaPairGolden(t *testing.T)   { runGolden(t, ThetaPair) }
func TestLockBalanceGolden(t *testing.T) { runGolden(t, LockBalance) }
func TestSpanCloseGolden(t *testing.T)   { runGolden(t, SpanClose) }
func TestSemReleaseGolden(t *testing.T)  { runGolden(t, SemRelease) }
func TestTxnAtomicGolden(t *testing.T)   { runGolden(t, TxnAtomic) }

// TestStatsResetScope: the rule binds a non-main package under a cmd
// directory, where the commands share code, and not a library package.
func TestStatsResetScope(t *testing.T) {
	runGoldenFixture(t, StatsReset, "statsreset/cmd/tool")
	if diags := Run(loadFixture(t, "statsreset/lib"), []*Analyzer{StatsReset}); len(diags) != 0 {
		t.Errorf("statsreset flagged a library package: %v", diags)
	}
}

// moduleLint is the one place a test run loads and lints the whole module:
// every package with its _test.go files (external _test packages surface as
// their own), bench/ included, under every analyzer. The test-inclusive
// view carries every production file and only SkipTests analyzers drop
// findings, and only in _test.go files, so one pass serves both self-hosting
// gates below. The shared loader's production packages serve as the
// dependencies, so the standard library is type-checked once per test
// binary.
var moduleLint = sync.OnceValues(func() (*lintedModule, error) {
	l, err := sharedLoader()
	if err != nil {
		return nil, fmt.Errorf("NewLoader: %w", err)
	}
	l.IncludeTests = true
	defer func() { l.IncludeTests = false }()
	pkgs, err := l.Load("./...")
	if err != nil {
		return nil, fmt.Errorf("loading module with tests: %w", err)
	}
	m := &lintedModule{pkgs: pkgs, results: make([]RunResult, len(pkgs))}
	for i, pkg := range pkgs {
		m.results[i] = RunAll(pkg, All())
	}
	return m, nil
})

// lintedModule pairs each loaded package with its lint result.
type lintedModule struct {
	pkgs    []*Package
	results []RunResult
}

func lintModule(t *testing.T) *lintedModule {
	t.Helper()
	m, err := moduleLint()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(m.pkgs))
	}
	return m
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

// TestRepoIsClean is the self-hosting gate for the production tree: every
// non-test file of the module must pass every analyzer with zero findings
// and no bare suppression, so a regression anywhere in the tree fails
// `go test` as well as CI's explicit sjlint step.
func TestRepoIsClean(t *testing.T) {
	m := lintModule(t)
	sawProdFile := false
	for i, pkg := range m.pkgs {
		for _, d := range m.results[i].Diagnostics {
			if !isTestFile(d.Pos.Filename) {
				t.Errorf("%s", d)
			}
		}
		for _, pos := range m.results[i].BareDirectives {
			if !isTestFile(pos.Filename) {
				t.Errorf("%s:%d: ignore directive without a justification", pos.Filename, pos.Line)
			}
		}
		for _, f := range pkg.Files {
			sawProdFile = sawProdFile || !isTestFile(pkg.Fset.Position(f.Pos()).Filename)
		}
	}
	if !sawProdFile {
		t.Fatal("the walk loaded no production files; the gate is vacuous")
	}
}

// TestRepoIsCleanWithTests extends the gate to test code: every real
// finding in a _test.go file is fixed or carries a justified
// //sjlint:ignore. It is also the only tier-1 step that type-checks bench/,
// a module of its own, against the engine.
func TestRepoIsCleanWithTests(t *testing.T) {
	m := lintModule(t)
	sawTestFile, sawBench := false, false
	for i, pkg := range m.pkgs {
		sawBench = sawBench || pkg.Path == "spatialjoin/bench"
		for _, d := range m.results[i].Diagnostics {
			t.Errorf("%s", d)
		}
		for _, pos := range m.results[i].BareDirectives {
			t.Errorf("%s:%d: ignore directive without a justification", pos.Filename, pos.Line)
		}
		for _, f := range pkg.Files {
			sawTestFile = sawTestFile || isTestFile(pkg.Fset.Position(f.Pos()).Filename)
		}
	}
	if !sawTestFile {
		t.Fatal("IncludeTests loaded no test files; the gate is vacuous")
	}
	if !sawBench {
		t.Fatal("the walk did not reach bench/; nothing type-checks it against the engine")
	}
}

// TestFixturesAreDirty guards the acceptance contract from the other side:
// running the full suite over the fixture tree must produce findings, so a
// silently broken loader or analyzer cannot fake a clean repo.
func TestFixturesAreDirty(t *testing.T) {
	total := 0
	for _, a := range All() {
		pkg := loadFixture(t, a.Name)
		total += len(Run(pkg, All()))
	}
	if total == 0 {
		t.Fatal("analyzer suite found nothing in the deliberately dirty fixtures")
	}
}
