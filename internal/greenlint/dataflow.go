package greenlint

// A forward dataflow framework over the CFGs of cfg.go.
//
// The solver is the classic monotone worklist algorithm: block in-facts
// are the join of predecessor out-facts, out-facts are the transfer
// function applied to the block's nodes, and blocks requeue while their
// out-fact still moves. Lattices here are small (per-variable state
// bitmasks with set-union join), so the fixpoint is cheap; a defensive
// fuel bound turns a non-monotone transfer function into a loud failure
// instead of a hang.
//
// Facts are opaque to the solver. Clients provide a Lattice (bottom,
// join, equality) and a transfer function over whole blocks. Transfer
// functions MUST be pure with respect to their input fact (clone before
// mutating) and monotone; meteredcost uses the varState fact type
// below, which carries both properties.

import "fmt"

// Fact is one dataflow fact — an arbitrary client value.
type Fact any

// Lattice defines the join-semilattice a flow analysis runs over.
type Lattice interface {
	// Bottom is the identity of Join: the fact of an unreached block.
	Bottom() Fact
	// Join combines facts at a control-flow merge. It must not mutate
	// its arguments.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are indistinguishable — the
	// solver's convergence test.
	Equal(a, b Fact) bool
}

// Solution is the fixpoint of a forward analysis: the fact entering and
// leaving every block.
type Solution struct {
	In, Out map[*Block]Fact
	// Iterations counts transfer-function applications until the
	// fixpoint — exposed so tests can pin convergence behaviour.
	Iterations int
}

// maxSolveVisits bounds transfer applications per block. Any monotone
// analysis on a finite lattice converges far below it; hitting the
// bound means the transfer function is buggy, and the solver says so
// rather than spinning.
const maxSolveVisits = 256

// SolveForward runs a forward dataflow analysis to fixpoint. entry is
// the fact flowing into the Entry block (joined with predecessor facts,
// which matters only for degenerate graphs where Entry has a back
// edge).
func SolveForward(c *CFG, lat Lattice, entry Fact, transfer func(*Block, Fact) Fact) (*Solution, error) {
	sol := &Solution{
		In:  make(map[*Block]Fact, len(c.Blocks)),
		Out: make(map[*Block]Fact, len(c.Blocks)),
	}
	for _, b := range c.Blocks {
		sol.In[b] = lat.Bottom()
		sol.Out[b] = lat.Bottom()
	}
	preds := c.Preds()
	order := c.ReversePostorder()

	queued := make(map[*Block]bool, len(order))
	queue := make([]*Block, 0, len(order))
	for _, b := range order {
		queue = append(queue, b)
		queued[b] = true
	}

	visits := make(map[*Block]int, len(order))
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false

		in := lat.Bottom()
		if b == c.Entry {
			in = lat.Join(in, entry)
		}
		for _, p := range preds[b] {
			in = lat.Join(in, sol.Out[p])
		}
		sol.In[b] = in
		out := transfer(b, in)
		sol.Iterations++
		visits[b]++
		if visits[b] > maxSolveVisits {
			return nil, fmt.Errorf("greenlint: dataflow solver exceeded %d visits on block b%d (%s); non-monotone transfer function?",
				maxSolveVisits, b.Index, b.Kind)
		}
		if lat.Equal(out, sol.Out[b]) {
			continue
		}
		sol.Out[b] = out
		for _, s := range b.Succs {
			if !queued[s] {
				queued[s] = true
				queue = append(queue, s)
			}
		}
	}
	return sol, nil
}

// varState is the fact shape of the obligation analysis: a state
// bitmask per tracked variable (identified by its types.Object, passed
// as a comparable key). The bitmask is a SET of path-states — the union
// over all paths reaching the program point — so "may still be
// uncharged" and "already charged" coexist on one variable.
type varState map[any]uint8

// varLattice is the join-semilattice over varState facts: key-wise
// bitmask union.
type varLattice struct{}

func (varLattice) Bottom() Fact { return varState(nil) }

func (varLattice) Join(a, b Fact) Fact {
	av, bv := a.(varState), b.(varState)
	if len(av) == 0 {
		return bv
	}
	if len(bv) == 0 {
		return av
	}
	out := make(varState, len(av)+len(bv))
	for k, v := range av {
		out[k] = v
	}
	for k, v := range bv {
		out[k] |= v
	}
	return out
}

func (varLattice) Equal(a, b Fact) bool {
	av, bv := a.(varState), b.(varState)
	if len(av) != len(bv) {
		return false
	}
	for k, v := range av {
		if bv[k] != v {
			return false
		}
	}
	return true
}

// clone copies a varState so transfer functions stay pure.
func (s varState) clone() varState {
	out := make(varState, len(s)+2)
	for k, v := range s {
		out[k] = v
	}
	return out
}
