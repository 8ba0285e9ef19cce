package greenlint

// A lightweight package-local call graph, plus the function-level
// directive `//greenlint:hotpath`.
//
// greenlint loads one package at a time through the source importer, so
// whole-program call graphs are out of reach by design — and not
// needed: the fact hotalloc propagates (must stay allocation-free) is a
// package-local property of this repository's layering. Cross-package
// boundaries are handled by contract instead: hot paths do not call
// across them.
//
// A function-level directive attaches to a declaration either from
// inside its doc comment or from the line directly above the `func`
// keyword:
//
//	//greenlint:hotpath <reason>  — the function (and every package-
//	    local function it transitively calls) must not allocate; the
//	    hotalloc analyzer enforces it.

import (
	"go/ast"
	"go/types"
)

// callGraph holds one package's function declarations and their
// package-local call edges.
type callGraph struct {
	// decls maps each declared function/method object to its syntax.
	decls map[*types.Func]*ast.FuncDecl
	// callees lists the package-local functions each declaration calls
	// directly, in source order, deduplicated.
	callees map[*types.Func][]*types.Func
}

// buildCallGraph walks every function declaration in the package and
// records edges to callees that resolve to functions declared in the
// same package. Calls through interfaces, function values, and other
// packages have no edge — the graph answers "which local code runs
// under this function", nothing more.
func buildCallGraph(p *Pass) *callGraph {
	g := &callGraph{
		decls:   map[*types.Func]*ast.FuncDecl{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
			if fd.Body == nil {
				continue
			}
			seen := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := p.calleeFunc(call)
				if callee == nil || callee.Pkg() != p.Pkg.Types || seen[callee] {
					return true
				}
				seen[callee] = true
				g.callees[obj] = append(g.callees[obj], callee)
				return true
			})
		}
	}
	return g
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (plain function, package-qualified function, or method), or nil for
// builtins, conversions, and dynamic calls.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reach computes the set of functions reachable from the roots over
// package-local call edges, mapping each reached function to the root
// annotation that pulled it in (for diagnostics). Roots map to
// themselves.
func (g *callGraph) reach(roots []*types.Func) map[*types.Func]*types.Func {
	owner := map[*types.Func]*types.Func{}
	var walk func(fn, root *types.Func)
	walk = func(fn, root *types.Func) {
		if _, ok := owner[fn]; ok {
			return
		}
		owner[fn] = root
		for _, callee := range g.callees[fn] {
			walk(callee, root)
		}
	}
	for _, r := range roots {
		walk(r, r)
	}
	return owner
}

// hotpathRoots attaches every hotpath directive to the function it
// annotates and returns those functions. Directives that attach to no
// function are returned in dangling for validateDirectives to flag — an
// annotation floating in space must not silently grant (or fail to
// grant) anything.
func hotpathRoots(p *Pass) (roots []*types.Func, dangling []directive) {
	type declSite struct {
		fn      *types.Func
		file    string
		funcLn  int
		docFrom int
		docTo   int
	}
	var sites []declSite
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			funcPos := p.Fset.Position(fd.Pos())
			s := declSite{fn: obj, file: funcPos.Filename, funcLn: funcPos.Line, docFrom: -1, docTo: -1}
			if fd.Doc != nil {
				s.docFrom = p.Fset.Position(fd.Doc.Pos()).Line
				s.docTo = p.Fset.Position(fd.Doc.End()).Line
				// fd.Pos() is the `func` keyword, but the doc group ends
				// directly above it; a directive as the doc's last line
				// has docTo == funcLn-1, covered by the range check.
			}
			sites = append(sites, s)
		}
	}
	for _, d := range parseDirectives(p.Fset, p.Pkg.Files) {
		if d.verb != "hotpath" {
			continue
		}
		var fn *types.Func
		for _, s := range sites {
			if d.pos.Filename != s.file {
				continue
			}
			if d.pos.Line+1 == s.funcLn || (s.docFrom >= 0 && d.pos.Line >= s.docFrom && d.pos.Line <= s.docTo) {
				fn = s.fn
				break
			}
		}
		if fn == nil {
			dangling = append(dangling, d)
			continue
		}
		roots = append(roots, fn)
	}
	return roots, dangling
}
