package greenlint

import (
	"go/ast"
	"strings"
)

// RowMajor guards the columnar data layout inside the ml kernels. The
// Frame refactor deleted every per-fit row-major materialization — the
// kernels read View columns in place — and the treeCore speedups in
// BENCH_3.json exist exactly because no [][]float64 feature matrix is
// rebuilt per fit. A new `make([][]float64, ...)` or [][]float64
// literal in internal/ml is how that regression returns, one
// innocent-looking transpose at a time; tabular has no view-to-rows
// method, so the compiler already refuses the other way back. Legitimate
// [][]float64 allocations remain — probability output rows mandated by
// the Classifier interface, class-by-feature parameter matrices,
// columnar column tables — and each carries a //greenlint:allow rowmajor
// annotation saying why it is not a feature matrix, so every new
// allocation must either be columnar or argue its case in the source.
var RowMajor = &Analyzer{
	Name: "rowmajor",
	Doc:  "forbid unannotated [][]float64 allocations in internal/ml; kernels are columnar",
	Run: func(p *Pass) {
		if !strings.HasSuffix(p.Pkg.Path, "/ml") {
			return
		}
		for _, f := range p.Pkg.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
						if t := p.typeOf(e.Args[0]); t != nil && t.String() == "[][]float64" {
							p.Reportf(e.Pos(),
								"make([][]float64, ...) in the columnar ml kernels; read View columns in place, or annotate why this is not a row-major feature matrix")
						}
					}
				case *ast.CompositeLit:
					if t := p.typeOf(e); t != nil && t.String() == "[][]float64" {
						p.Reportf(e.Pos(),
							"[][]float64 literal in the columnar ml kernels; read View columns in place, or annotate why this is not a row-major feature matrix")
					}
				}
				return true
			})
		}
	},
}
