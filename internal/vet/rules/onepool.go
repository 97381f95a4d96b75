package rules

import (
	"go/ast"
	"strconv"

	"github.com/jockeysim/jockey/internal/vet"
)

// gridPath is the one package allowed to start goroutines.
const gridPath = ModulePath + "/internal/grid"

// OnePool keeps every goroutine of the repository in one place: grid.Run's
// worker pool. Each parallel loop (a model.Builder's C(p, a) cells and
// OnlineSim forward runs, experiment grid points, fleet model warm-up) is a
// grid.Run whose workers
// touch only their own slots, so its output is bit-identical at any
// parallelism, and the pool is the only code the race detector and the
// lowest-failing-index contract have to cover. Outside internal/grid the
// rule flags go statements, runtime.GOMAXPROCS (grid.Workers owns the
// default pool size) and imports of sync and sync/atomic, whose presence
// means state is shared between goroutines or across owners. Test files are
// exempt.
var OnePool = &vet.Analyzer{
	Name: "onepool",
	Doc:  "outside internal/grid, forbid go statements, runtime.GOMAXPROCS and imports of sync or sync/atomic in non-test code; run parallel work on grid.Run",
	Run:  runOnePool,
}

func runOnePool(p *vet.Pass) error {
	if basePath(p.Pkg.Path()) == gridPath {
		return nil
	}
	for _, f := range p.Files {
		if vet.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && (path == "sync" || path == "sync/atomic") {
				p.Reportf(imp.Pos(), "import of %s outside internal/grid; run parallel work on grid.Run, whose workers share no state", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement outside internal/grid; run parallel work on grid.Run")
			case *ast.SelectorExpr:
				if name, ok := pkgFuncRef(p, n, "runtime"); ok && name == "GOMAXPROCS" {
					p.Reportf(n.Pos(), "runtime.GOMAXPROCS outside internal/grid; grid.Workers sizes the pool")
				}
			}
			return true
		})
	}
	return nil
}
