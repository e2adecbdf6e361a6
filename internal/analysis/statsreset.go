package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// StatsReset enforces counter-reset discipline in experiment code (package
// main, and any package under a cmd directory, where the commands share
// code): a snapshot of the I/O statistics — PoolStats, DiskStats, or the
// database-level aggregates — is only meaningful after the measurement
// window was opened with a Flush/DropAll/DropCache or a counter reset.
// A snapshot with no preceding reset in the same function silently folds
// warm-up I/O, index builds, and unflushed write-backs into the reported
// figures, corrupting every experiment built on them.
var StatsReset = &Analyzer{
	Name: "statsreset",
	Doc:  "in package main and packages under cmd/, flag I/O statistics snapshots with no preceding Flush/DropAll/DropCache/Reset call in the same function",
	Run:  runStatsReset,
}

// statsSnapshotMethods read the counters; statsResetMethods open a
// measurement window (flushing pending write-backs or zeroing counters).
var (
	statsSnapshotMethods = map[string]bool{
		"Stats": true, "IOStats": true, "DiskStats": true,
	}
	statsResetMethods = map[string]bool{
		"Flush": true, "DropAll": true, "ResetStats": true,
		"DropCache": true, "ResetIOStats": true,
	}
)

func runStatsReset(pass *Pass) {
	if pass.Pkg.Name() != "main" && !strings.Contains("/"+pass.Pkg.Path()+"/", "/cmd/") {
		return // the discipline binds experiment binaries, not the library
	}
	// measured reports whether fn is a method of one of the instrumented
	// layers: the storage substrate, the fault device, or the database API.
	measured := func(fn *types.Func) bool {
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case storagePkgPath, faultPkgPath, rootPkgPath:
		default:
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() != nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkStatsResetFunc(pass, fd, measured)
			}
		}
	}
}

// checkStatsResetFunc flags every snapshot call in fd's body that no reset
// call precedes (by source position, including calls inside function
// literals — a reset in a helper closure defined earlier still opens the
// window for code that runs it).
func checkStatsResetFunc(pass *Pass, fd *ast.FuncDecl, measured func(*types.Func) bool) {
	type site struct {
		pos      token.Pos
		name     string
		snapshot bool
	}
	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if !measured(fn) {
			return true
		}
		switch {
		case statsSnapshotMethods[fn.Name()]:
			sites = append(sites, site{call.Pos(), fn.Name(), true})
		case statsResetMethods[fn.Name()]:
			sites = append(sites, site{call.Pos(), fn.Name(), false})
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	windowOpen := false
	for _, s := range sites {
		if !s.snapshot {
			windowOpen = true
			continue
		}
		if !windowOpen {
			pass.Reportf(s.pos,
				"%s() snapshot without a preceding Flush/DropAll/DropCache/Reset call in this function; the counters include I/O from before the measured work",
				s.name)
		}
	}
}
