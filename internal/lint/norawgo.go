package lint

import (
	"go/ast"
)

// NoRawGoAnalyzer enforces the executor's panic-containment discipline: a
// goroutine started with a raw `go` statement in internal/exec escapes both
// the worker-level panic recovery (a panic kills the process instead of
// failing the query with a typed *ExecPanicError) and the join guarantee
// (Run must not return while worker goroutines are still touching shared
// state). Every spawn must go through the goSafe helper, which registers
// with a WaitGroup and converts panics into errors delivered before the
// waiter is released. goSafe itself hosts the one sanctioned `go`
// statement. internal/dist is held to the same rule and has no goSafe of
// its own: the sites of a cluster fragment run on the executor's pool
// (exec.ForEach), so the distributed runtime starts no goroutine itself.
var NoRawGoAnalyzer = &Analyzer{
	Name: "norawgo",
	Doc:  "forbid raw go statements in the executor (spawn through goSafe, which recovers panics and guarantees the join)",
	Dirs: []string{"internal/exec", "internal/dist"},
	Run:  runNoRawGo,
}

func runNoRawGo(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The spawn helper is the sanctioned home of the raw go
			// statement; only the package-level function counts, not a
			// method that happens to share the name.
			if fd.Recv == nil && fd.Name.Name == "goSafe" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "raw go statement in executor code: spawn through goSafe, which contains panics as *ExecPanicError and joins the goroutine")
				}
				return true
			})
		}
	}
	return nil
}
