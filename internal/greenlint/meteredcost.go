package greenlint

// meteredcost enforces energy-accounting completeness: the paper's
// green-AutoML comparisons are only as trustworthy as the cost ledger,
// and the ledger's currency is ml.Cost. Every fit/predict entry point
// in internal/ml returns a Cost describing the compute it just spent;
// the caller's side of the contract is to CHARGE that cost — feed it to
// an energy.Meter, fold it into an accumulator, or return it so a
// caller higher up does. A Cost that is produced and never read is
// compute the tracker never hears about: the search looks cheaper than
// it was, which is precisely the measurement gap the source paper
// warns about.
//
// The analysis is an intraprocedural forward dataflow over the CFG (see
// cfg.go and dataflow.go). Any call (from non-test code) whose results
// include an ml.Cost mints an obligation; the variable holding it
// carries path-states
//
//	Uncharged — produced, not yet read on this path
//	Charged   — read (charged, accumulated, returned, or stored)
//
// joined by union. Findings:
//
//   - discarded: the Cost result is dropped outright — a bare call
//     statement, or bound to _, or explicitly laundered via `_ = c`;
//   - unmetered path: a normal exit reachable with Uncharged set — the
//     classic shape is the early error return between Fit and the
//     meter.Run call.
//
// "Read" is deliberately generous (any non-write mention of the
// variable counts): the analyzer's job is to catch compute that falls
// on the floor, not to audit what the charging code does with it.
// Methods on Cost itself (Works, Add) and composite literals are not
// sources — obligations begin where compute happens, at the call that
// returned the Cost.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const (
	mcUncharged uint8 = 1 << iota
	mcCharged
)

// MeteredCost is the energy-accounting completeness analyzer.
var MeteredCost = &Analyzer{
	Name: "meteredcost",
	Doc:  "an ml.Cost returned by fit/predict compute must be charged (metered, accumulated, or returned) on every path — no free compute",
	Run:  runMeteredCost,
}

// mlPkg reports whether pkg is the ml package.
func mlPkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/ml")
}

// isCostType reports whether t is ml.Cost.
func isCostType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Cost" && mlPkg(n.Obj().Pkg())
}

type costAnalysis struct {
	p        *Pass
	reported map[string]bool
}

func runMeteredCost(p *Pass) {
	a := &costAnalysis{p: p, reported: map[string]bool{}}
	for _, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					a.checkBody(fn.Body)
				}
			case *ast.FuncLit:
				a.checkBody(fn.Body)
			}
			return true
		})
	}
}

// isCostSource reports whether call mints a charge obligation: a real
// call (not a conversion, not a builtin) with an ml.Cost among its
// results, excluding methods on Cost itself — Cost.Works and friends
// transform an obligation already minted, they do not create one.
func (a *costAnalysis) isCostSource(call *ast.CallExpr) bool {
	if fn := a.p.calleeFunc(call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if isCostType(sig.Recv().Type()) {
				return false
			}
			if pt, ok := sig.Recv().Type().(*types.Pointer); ok && isCostType(pt.Elem()) {
				return false
			}
		}
	}
	tv, ok := a.p.Pkg.Info.Types[call.Fun]
	if ok && tv.IsType() {
		return false // conversion
	}
	t := a.p.typeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isCostType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isCostType(t)
	}
}

// costResultIndexes returns the positions of ml.Cost values in call's
// result tuple.
func (a *costAnalysis) costResultIndexes(call *ast.CallExpr) []int {
	t := a.p.typeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		var out []int
		for i := 0; i < tup.Len(); i++ {
			if isCostType(tup.At(i).Type()) {
				out = append(out, i)
			}
		}
		return out
	}
	if isCostType(t) {
		return []int{0}
	}
	return nil
}

func (a *costAnalysis) checkBody(body *ast.BlockStmt) {
	cfg := BuildCFG(body, nil)

	srcPos := map[any]token.Pos{}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !a.isCostSource(call) {
					continue
				}
				for _, obj := range a.boundCostVars(as, i, call) {
					srcPos[obj] = call.Pos()
				}
			}
		}
	}

	transfer := func(blk *Block, in Fact) Fact {
		st := in.(varState).clone()
		for _, n := range blk.Nodes {
			st = a.step(n, st, nil)
		}
		return st
	}
	sol, err := SolveForward(cfg, varLattice{}, varState{}, transfer)
	if err != nil {
		a.p.Reportf(body.Pos(), "internal error: %v", err)
		return
	}

	for _, blk := range cfg.Blocks {
		st := sol.In[blk].(varState).clone()
		for _, n := range blk.Nodes {
			st = a.step(n, st, func(pos token.Pos, format string, args ...any) {
				a.reportOnce(pos, format, args...)
			})
		}
	}

	// PanicExit is exempt: a panicking path is not an accounting
	// strategy anyone chose.
	exitState := sol.In[cfg.Exit].(varState)
	for obj, mask := range exitState {
		if mask&mcUncharged != 0 {
			pos, ok := srcPos[obj]
			if !ok {
				continue
			}
			name := "cost"
			if o, ok := obj.(types.Object); ok {
				name = o.Name()
			}
			a.reportOnce(pos,
				"ml.Cost %q may go unmetered: not charged, accumulated, or returned on every path to return — no compute path is free", name)
		}
	}
}

func (a *costAnalysis) reportOnce(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.p.Reportf(pos, "%s", msg)
}

// boundCostVars resolves which variables an assignment binds to the
// Cost results of the source call at Rhs[i].
func (a *costAnalysis) boundCostVars(as *ast.AssignStmt, i int, call *ast.CallExpr) []types.Object {
	var out []types.Object
	if len(as.Lhs) == len(as.Rhs) {
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
			if obj := a.objOf(id); obj != nil {
				out = append(out, obj)
			}
		}
		return out
	}
	if len(as.Rhs) == 1 {
		for _, k := range a.costResultIndexes(call) {
			if k >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[k].(*ast.Ident); ok && id.Name != "_" {
				if obj := a.objOf(id); obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	return out
}

func (a *costAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := a.p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.p.Pkg.Info.Uses[id]
}

// reporter receives the findings of the report pass.
type reporter func(pos token.Pos, format string, args ...any)

// callName is the short name of call's callee, for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

// step applies one atomic node to the charge state. rep is nil during
// fixpoint solving and non-nil during the report pass.
func (a *costAnalysis) step(n ast.Node, st varState, rep reporter) varState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return a.stepAssign(n, st, rep)

	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && a.isCostSource(call) {
			if rep != nil {
				rep(call.Pos(), "ml.Cost result of %s is discarded; charge it to the energy meter, accumulate it, or return it", callName(call))
			}
		}
		return a.markReads(n.X, st)

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = a.markReads(v, st)
						if call, ok := ast.Unparen(v).(*ast.CallExpr); ok && a.isCostSource(call) && len(vs.Names) == 1 && vs.Names[0].Name != "_" {
							if obj := a.objOf(vs.Names[0]); obj != nil {
								st[obj] = mcUncharged
							}
						}
					}
				}
			}
		}
		return st

	case *ast.DeferStmt:
		return a.markReads(n.Call, st)

	case *ast.GoStmt:
		return a.markReads(n.Call, st)

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			st = a.markReads(res, st)
		}
		return st

	case *ast.SendStmt:
		st = a.markReads(n.Chan, st)
		return a.markReads(n.Value, st)

	case *ast.IncDecStmt:
		return a.markReads(n.X, st)

	case ast.Expr:
		return a.markReads(n, st)
	}
	return st
}

func (a *costAnalysis) stepAssign(as *ast.AssignStmt, st varState, rep reporter) varState {
	// `_ = c` on a tracked, still-uncharged cost is an explicit
	// discard, not a charge.
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
			if rid, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok {
				if obj := a.p.Pkg.Info.Uses[rid]; obj != nil {
					if mask, tracked := st[obj]; tracked && mask&mcUncharged != 0 {
						if rep != nil {
							rep(rid.Pos(), "ml.Cost %q is explicitly discarded (_ = %s); charge it instead", rid.Name, rid.Name)
						}
						st[obj] = mcCharged // reported once; don't re-report at exit
						return st
					}
				}
			}
		}
	}
	// RHS reads discharge obligations.
	for _, rhs := range as.Rhs {
		st = a.markReads(rhs, st)
	}
	// Non-ident LHS components (index/selector bases) are reads.
	for _, lhs := range as.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			st = a.markReads(lhs, st)
		}
	}
	// Writes: _ bindings of cost results are discards; ident writes
	// drop tracking (overwrite of an uncharged cost is itself a leak —
	// report at the overwrite).
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		isSrc := ok && a.isCostSource(call)
		if !isSrc {
			continue
		}
		if len(as.Lhs) == len(as.Rhs) {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				if rep != nil {
					rep(call.Pos(), "ml.Cost result of %s is discarded (bound to _); charge it to the energy meter, accumulate it, or return it", callName(call))
				}
			}
		} else if len(as.Rhs) == 1 {
			for _, k := range a.costResultIndexes(call) {
				if k < len(as.Lhs) {
					if id, ok := as.Lhs[k].(*ast.Ident); ok && id.Name == "_" {
						if rep != nil {
							rep(call.Pos(), "ml.Cost result of %s is discarded (bound to _); charge it to the energy meter, accumulate it, or return it", callName(call))
						}
					}
				}
			}
		}
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := a.objOf(id)
		if obj == nil {
			continue
		}
		if mask, tracked := st[obj]; tracked && mask&mcUncharged != 0 && as.Tok != token.DEFINE {
			if rep != nil {
				rep(id.Pos(), "ml.Cost %q overwritten while still uncharged; charge it first", id.Name)
			}
		}
		delete(st, obj)
	}
	// New obligations.
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !a.isCostSource(call) {
			continue
		}
		for _, obj := range a.boundCostVars(as, i, call) {
			st[obj] = mcUncharged
		}
	}
	return st
}

// markReads marks every tracked variable mentioned in e as charged.
// Function literals count: capturing the cost hands the obligation to
// code we treat as charging it.
func (a *costAnalysis) markReads(e ast.Expr, st varState) varState {
	if e == nil {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.p.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if mask, tracked := st[obj]; tracked {
			st[obj] = (mask &^ mcUncharged) | mcCharged
		}
		return true
	})
	return st
}
