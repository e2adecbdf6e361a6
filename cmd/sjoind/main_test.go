package main

import (
	"os/exec"
	"strings"
	"testing"
)

// daemonDeps is every module package the daemon may link: the engine, the
// internal packages it was built from when this list was taken, the
// commands' shared layer and the daemon itself. A package may leave the
// list; none may join it, so a helper shared with the reproduction
// commands cannot pull their imports into the server binary.
var daemonDeps = map[string]bool{
	"spatialjoin":                     true,
	"spatialjoin/cmd/internal/cli":    true,
	"spatialjoin/cmd/sjoind":          true,
	"spatialjoin/internal/btree":      true,
	"spatialjoin/internal/carto":      true,
	"spatialjoin/internal/core":       true,
	"spatialjoin/internal/costmodel":  true,
	"spatialjoin/internal/datagen":    true,
	"spatialjoin/internal/fault":      true,
	"spatialjoin/internal/geom":       true,
	"spatialjoin/internal/join":       true,
	"spatialjoin/internal/joinindex":  true,
	"spatialjoin/internal/localindex": true,
	"spatialjoin/internal/obs":        true,
	"spatialjoin/internal/parallel":   true,
	"spatialjoin/internal/pred":       true,
	"spatialjoin/internal/relation":   true,
	"spatialjoin/internal/repl":       true,
	"spatialjoin/internal/rtree":      true,
	"spatialjoin/internal/server":     true,
	"spatialjoin/internal/storage":    true,
	"spatialjoin/internal/wal":        true,
	"spatialjoin/internal/wire":       true,
	"spatialjoin/internal/zorder":     true,
}

func TestImportBoundary(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	seen := 0
	for _, pkg := range strings.Fields(string(out)) {
		if pkg != "spatialjoin" && !strings.HasPrefix(pkg, "spatialjoin/") {
			continue
		}
		seen++
		if !daemonDeps[pkg] {
			t.Errorf("sjoind now links %s; the daemon's dependency list may only shrink", pkg)
		}
	}
	if seen == 0 {
		t.Fatalf("go list named no module package:\n%s", out)
	}
}
