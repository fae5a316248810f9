package lint

import (
	"go/ast"
	"go/types"
)

// MapRangeAnalyzer flags `range` over a map value in the executor and
// expression packages. Go randomizes map iteration order, so any row path
// that feeds rows, groups or join matches out of a bare map range produces
// run-to-run nondeterministic output — the exact failure mode the
// serial-vs-parallel oracle exists to catch, but only dynamically. The
// engine's convention is an index that hands out ids in insertion order
// (paged.Dict, under every hashed store) or an explicit sort of the keys.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "forbid bare range over maps in row paths (nondeterministic iteration order)",
	Dirs: []string{"internal/exec", "internal/expr"},
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rs.For, "range over map %s: iteration order is nondeterministic in a row path; keep an insertion-order slice or sort the keys", types.ExprString(rs.X))
			}
			return true
		})
	}
	return nil
}
