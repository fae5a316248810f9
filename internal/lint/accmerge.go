package lint

import (
	"go/ast"
	"go/types"
)

// AccMergeAnalyzer enforces the accumulator contract that parallel
// aggregation depends on: any type implementing Add and Result (the shape
// of expr.Accumulator, and of expr.AccColumn, its per-group-id column form)
// must also implement Merge — MergeFrom in the column form: the
// partial-aggregate combine step thread-local partials flow through — and it
// must type-assert its partner before touching it, so a cross-kind merge fails
// loudly instead of corrupting an aggregate. A missing Merge silently
// excludes the aggregate from parallel group-by; a non-asserting Merge
// panics or miscomputes when the planner ever pairs partials wrongly.
var AccMergeAnalyzer = &Analyzer{
	Name: "accmerge",
	Doc:  "require a law-abiding Merge on every accumulator implementation",
	Dirs: []string{"internal/expr"},
	Run:  runAccMerge,
}

func runAccMerge(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // the Accumulator interface itself
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		if lookupMethod(mset, "Add") == nil || lookupMethod(mset, "Result") == nil {
			continue // not an accumulator
		}
		merge := "Merge"
		if lookupMethod(mset, merge) == nil {
			if merge = "MergeFrom"; lookupMethod(mset, merge) == nil {
				pass.Reportf(tn.Pos(), "accumulator %s has Add and Result but no Merge: it cannot participate in parallel partial aggregation", name)
				continue
			}
		}
		checkMergeBody(pass, name, merge)
	}
	return nil
}

// lookupMethod finds a method by name in a method set.
func lookupMethod(mset *types.MethodSet, name string) *types.Selection {
	for i := 0; i < mset.Len(); i++ {
		if sel := mset.At(i); sel.Obj().Name() == name {
			return sel
		}
	}
	return nil
}

// checkMergeBody locates the merge method declared on the named type and
// requires a type assertion in its body.
func checkMergeBody(pass *Pass, typeName, merge string) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != merge || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) != typeName {
				continue
			}
			if fd.Body == nil {
				return
			}
			asserts := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.TypeAssertExpr:
					asserts = true
				case *ast.TypeSwitchStmt:
					asserts = true
				}
				return !asserts
			})
			if !asserts {
				pass.Reportf(fd.Pos(), "%s.%s never type-asserts its partner: a cross-kind partial merge must fail explicitly, not corrupt the aggregate", typeName, merge)
			}
			return
		}
	}
}

// receiverTypeName unwraps a receiver type expression to its base name.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
