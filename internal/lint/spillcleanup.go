package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpillCleanupAnalyzer enforces the temp-file hygiene the disk-chaos oracle
// depends on. Spill files carry two obligations: they must be created
// through a storage.SpillManager (which tracks the live set, so a run can
// prove it leaked nothing), and every function that constructs a manager
// must defer its Cleanup — the panic path unwinds past the operators' own
// sweeps, so only a deferred sweep at the construction site guarantees no
// file outlives the query. The analyzer flags ad-hoc temp files (os.CreateTemp
// and friends) everywhere in its scope, raw filesystem mutation inside the
// executor and storage packages (where all file I/O belongs to the
// manager), and NewSpillManager call sites whose function never defers a
// Cleanup. The SpillManager's own methods are the sanctioned filesystem
// boundary and are exempt.
var SpillCleanupAnalyzer = &Analyzer{
	Name: "spillcleanup",
	Doc:  "spill temp files must come from a storage.SpillManager, and every manager construction site must defer Cleanup in the same function",
	Dirs: []string{"", "cmd", "internal/exec", "internal/storage"},
	Run:  runSpillCleanup,
}

// rawTempFuncs create files or directories the SpillManager never sees.
var rawTempFuncs = map[string]bool{
	"CreateTemp": true,
	"MkdirTemp":  true,
	"TempDir":    true,
}

// fsMutatorFuncs are the os-package filesystem mutations that, inside the
// executor or storage packages, belong behind the SpillManager.
var fsMutatorFuncs = map[string]bool{
	"Create":    true,
	"OpenFile":  true,
	"Mkdir":     true,
	"MkdirAll":  true,
	"Remove":    true,
	"RemoveAll": true,
	"Rename":    true,
	"WriteFile": true,
}

func runSpillCleanup(pass *Pass) error {
	// The strict no-raw-filesystem rule applies where spill files live; the
	// package name (not the module-relative path) keys the decision so the
	// fixture package can opt in.
	strict := pass.Pkg != nil && (pass.Pkg.Name() == "exec" || pass.Pkg.Name() == "storage")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exempt := fd.Recv != nil && len(fd.Recv.List) > 0 &&
				receiverTypeName(fd.Recv.List[0].Type) == "SpillManager"
			if site := spillManagerSite(fd.Body); site.IsValid() && !hasDeferredCleanup(fd.Body) {
				pass.Reportf(site, "NewSpillManager without a deferred Cleanup in the same function: a panic or early return leaks every file the manager created — defer mgr.Cleanup() at the construction site")
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pass.ObjectOf(id).(*types.PkgName)
				if !ok || pn.Imported().Path() != "os" {
					return true
				}
				name := sel.Sel.Name
				switch {
				case rawTempFuncs[name]:
					pass.Reportf(call.Pos(), "os.%s creates an untracked temp file: create spill files through a storage.SpillManager so the leak oracle can see them", name)
				case strict && !exempt && fsMutatorFuncs[name]:
					pass.Reportf(call.Pos(), "direct os.%s in spill-capable code: all spill-file I/O goes through the storage.SpillManager, which tracks the live set and sweeps it at Cleanup", name)
				}
				return true
			})
		}
	}
	return nil
}

// spillManagerSite returns the position of the first NewSpillManager call
// in the body, or token.NoPos.
func spillManagerSite(body *ast.BlockStmt) token.Pos {
	site := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if site.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "NewSpillManager" {
				site = call.Pos()
			}
		case *ast.Ident:
			if fun.Name == "NewSpillManager" {
				site = call.Pos()
			}
		}
		return true
	})
	return site
}

// hasDeferredCleanup reports whether the body defers a Cleanup call, either
// directly (defer mgr.Cleanup()) or through a function literal whose body
// calls Cleanup (defer func() { _ = mgr.Cleanup() }()).
func hasDeferredCleanup(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if callsCleanup(ds.Call.Fun) {
			found = true
			return false
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && callsCleanup(call.Fun) {
					found = true
					return false
				}
				return true
			})
		}
		return !found
	})
	return found
}

// callsCleanup reports whether the call target is a Cleanup method.
func callsCleanup(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Cleanup"
}
