package greenlint

// hotalloc keeps the PR 7 kernels allocation-free. The fused columnar
// scans in internal/ml and the Frame accessors in internal/tabular won
// their BENCH deltas by moving every allocation out of the per-row /
// per-candidate loops into reusable scratch; one careless `make`, a
// growing append, or an interface conversion in a kernel puts the
// allocator (and the GC) back on the hot path, and nothing fails — the
// numbers just quietly regress.
//
// A function opts into the discipline with
//
//	//greenlint:hotpath <reason>
//
// on its declaration. The constraint is transitive over the package-
// local call graph: everything a hot function calls within its package
// is hot too (cross-package calls are boundaries by contract — the
// hot kernels do not make them, and the analyzer cannot see past them
// anyway). Inside hot code the analyzer rejects allocation-bearing
// constructs:
//
//   - make and new;
//   - slice and map composite literals, and &T{} (heap-escaping);
//     plain struct/array value literals are allowed — they live on
//     the stack;
//   - append — growth is an allocation, and whether THIS call grows
//     is a runtime question the analyzer refuses to guess;
//   - function literals that capture variables — a capturing closure
//     allocates its environment (non-capturing literals are fine);
//   - interface boxing: passing, assigning, or returning a concrete
//     non-pointer value where an interface is expected (pointers and
//     existing interfaces move without allocating);
//   - string<->[]byte/[]rune conversions, which copy.
//
// Exceptions carry //greenlint:allow hotalloc <reason> like any other
// check — e.g. an amortized grow path behind a cap check.

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc is the hot-path allocation analyzer.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions annotated //greenlint:hotpath (and their package-local callees) must not contain allocation-bearing constructs",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	roots, _ := hotpathRoots(p)
	if len(roots) == 0 {
		return
	}
	g := buildCallGraph(p)
	hot := g.reach(roots)
	for fn, root := range hot {
		fd := g.decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		if strings.HasSuffix(p.Fset.Position(fd.Pos()).Filename, "_test.go") {
			continue
		}
		why := ""
		if root != fn {
			why = " (hot via " + root.Name() + ")"
		}
		checkHotFunc(p, fd, why)
	}
}

// checkHotFunc walks one hot function body for allocation-bearing
// constructs. why names the hotpath root when the function is hot by
// propagation rather than by its own annotation.
func checkHotFunc(p *Pass, fd *ast.FuncDecl, why string) {
	var results *types.Tuple
	if obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n, why)

		case *ast.CompositeLit:
			switch p.typeOf(n).Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates on a hot path%s; hoist it into reusable scratch", why)
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates on a hot path%s; hoist it into reusable scratch", why)
			}

		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.Reportf(cl.Pos(), "&composite literal escapes to the heap on a hot path%s; reuse a preallocated value", why)
				}
			}

		case *ast.FuncLit:
			if captures(p, n) {
				p.Reportf(n.Pos(), "capturing closure allocates its environment on a hot path%s; pass state explicitly or hoist the closure", why)
			}
			// The literal's body runs wherever the value is called;
			// the capture check above prices its creation, and the
			// body is still walked for allocations below.

		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				lt := p.typeOf(n.Lhs[i])
				if lt != nil && boxes(p, lt, rhs) {
					p.Reportf(rhs.Pos(), "assignment boxes a concrete value into an interface on a hot path%s; use a pointer or avoid the interface", why)
				}
			}

		case *ast.ReturnStmt:
			if results == nil || len(n.Results) != results.Len() {
				break
			}
			for i, res := range n.Results {
				if boxes(p, results.At(i).Type(), res) {
					p.Reportf(res.Pos(), "return boxes a concrete value into an interface on a hot path%s; use a pointer or avoid the interface", why)
				}
			}
		}
		return true
	})
}

// checkHotCall flags builtins and argument boxing for one call inside a
// hot function.
func checkHotCall(p *Pass, call *ast.CallExpr, why string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				p.Reportf(call.Pos(), "make allocates on a hot path%s; hoist the buffer into reusable scratch", why)
			case "new":
				p.Reportf(call.Pos(), "new allocates on a hot path%s; reuse a preallocated value", why)
			case "append":
				p.Reportf(call.Pos(), "append may grow (allocate) on a hot path%s; presize the buffer and index into it", why)
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy, and T(x) where T is an
	// interface boxes exactly like an assignment would.
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := p.typeOf(call)
		from := p.typeOf(call.Args[0])
		if to != nil && from != nil && stringSliceConv(to, from) {
			p.Reportf(call.Pos(), "string/slice conversion copies on a hot path%s; keep one representation", why)
		}
		if boxes(p, to, call.Args[0]) {
			p.Reportf(call.Pos(), "conversion boxes a concrete value into an interface on a hot path%s; use a pointer or avoid the interface", why)
		}
		return
	}
	// Argument boxing against the callee signature.
	sig, ok := p.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if boxes(p, pt, arg) {
			p.Reportf(arg.Pos(), "argument boxes a concrete value into an interface on a hot path%s; use a pointer or avoid the interface", why)
		}
	}
}

// boxes reports whether storing expr into a destination of type dst
// allocates an interface box: dst is an interface and expr's type is a
// concrete non-pointer type (and not an untyped constant — constants
// box into rodata, not the heap).
func boxes(p *Pass, dst types.Type, expr ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Value != nil {
		return false // constant
	}
	at := tv.Type
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface word
	}
	if bt, ok := at.Underlying().(*types.Basic); ok && bt.Info()&types.IsUntyped != 0 {
		return false
	}
	return true
}

// stringSliceConv reports whether (to, from) is a copying conversion
// between string and []byte/[]rune in either direction.
func stringSliceConv(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isString(from) && isByteOrRuneSlice(to))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// captures reports whether a function literal references any variable
// declared outside itself (receiver-less package-level names do not
// count — globals are not part of a closure environment).
func captures(p *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == p.Pkg.Types.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe: not captured
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		found = true
		return false
	})
	return found
}
