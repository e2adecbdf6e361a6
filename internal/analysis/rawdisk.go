package analysis

import (
	"go/ast"
	"go/types"
)

// RawDisk forbids direct physical I/O outside the storage layer. Every page
// transfer must be mediated by storage.BufferPool so the cost model's
// page-access counters (the paper's C_IO charge per physical access) see
// it; a single call path that calls ReadPage, ReadPageInto or WritePage
// directly — whether on the concrete Disk, through the Device interface,
// on the fault-injecting wrapper, or through the storage.ReadPage helper —
// silently corrupts every reported I/O figure and skips the pool's
// checksum verification and retry policy.
var RawDisk = &Analyzer{
	Name: "rawdisk",
	Doc:  "forbid ReadPage/ReadPageInto/WritePage calls on Disk, Device, or fault.Disk outside the storage/fault layers so all I/O is counted by the buffer pool",
	Run:  runRawDisk,
}

// rawDiskReceivers names the types whose transfer methods are the raw
// physical surface, per defining package.
var rawDiskReceivers = map[string]map[string]bool{
	storagePkgPath: {"Disk": true, "Device": true},
	faultPkgPath:   {"Disk": true},
}

// rawDiskMethods are the page-transfer entry points.
var rawDiskMethods = map[string]bool{"ReadPage": true, "ReadPageInto": true, "WritePage": true}

func runRawDisk(pass *Pass) {
	switch pass.Pkg.Path() {
	case storagePkgPath, faultPkgPath:
		return // the storage layer mediates; the fault layer wraps the device
	case walPkgPath:
		// The write-ahead log owns its device region: its appends bypass the
		// pool by design (log pages are written once and never cached), and
		// recovery replays images onto the raw device before any pool exists.
		// Its transfers still land in DiskStats via the device itself.
		return
	}
	inspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		receivers, ok := rawDiskReceivers[fn.Pkg().Path()]
		if !ok {
			return true
		}
		if !rawDiskMethods[fn.Name()] {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		// what names the transfer: pkg.Type.Method, or pkg.ReadPage for the
		// package-level helper — the same read with the buffer allocated
		// for the caller.
		what := fn.Pkg().Name() + "." + fn.Name()
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil || !receivers[named.Obj().Name()] {
				return true
			}
			what = fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
		} else if fn.Pkg().Path() != storagePkgPath || fn.Name() != "ReadPage" {
			return true
		}
		pass.Reportf(call.Pos(),
			"raw %s bypasses BufferPool I/O accounting; fetch pages through a storage.BufferPool instead", what)
		return true
	})
}
