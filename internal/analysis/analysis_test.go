package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	got, err := ByName("floateq, lockbalance")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "floateq" || got[1].Name != "lockbalance" {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestAllAnalyzersAreNamedAndDocumented(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely defined", a)
		}
		if strings.ToLower(a.Name) != a.Name || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q is not lower-case and space-free", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 5 {
		t.Fatalf("suite has %d analyzers, want at least 5", len(seen))
	}
}

func TestLoaderResolvesModule(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "spatialjoin" {
		t.Fatalf("module path = %q, want spatialjoin", l.ModulePath)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir(.): %v", err)
	}
	if pkg.Path != "spatialjoin/internal/analysis" {
		t.Fatalf("package path = %q", pkg.Path)
	}
	if pkg.Types == nil || len(pkg.Files) == 0 {
		t.Fatal("package loaded without types or files")
	}
	// Test files must not be loaded: sjlint checks production code.
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader picked up test file %s", name)
		}
	}
}

func TestIgnoreDirectiveParsing(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/src/floateq")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	ig := collectIgnores(pkg)
	if len(ig.at) == 0 {
		t.Fatal("no ignore directives collected from fixture")
	}
	found := false
	for key, set := range ig.at {
		if set["floateq"] {
			found = true
			// The directive must suppress on its own line and the next.
			d := Diagnostic{Analyzer: "floateq", Pos: token.Position{Filename: key.file, Line: key.line}}
			if !ig.suppresses(d) {
				t.Errorf("directive at %s:%d does not suppress same-line diagnostic", key.file, key.line)
			}
			d.Pos.Line = key.line + 1
			if !ig.suppresses(d) {
				t.Errorf("directive at %s:%d does not suppress next-line diagnostic", key.file, key.line)
			}
			d.Analyzer = "lockbalance"
			if ig.suppresses(d) {
				t.Errorf("directive at %s:%d suppresses an analyzer it does not name", key.file, key.line)
			}
		}
	}
	if !found {
		t.Fatal("fixture's floateq ignore directive was not parsed")
	}
}
