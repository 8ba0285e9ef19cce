// Package ml is the model zoo underneath every AutoML system in this
// repository.
//
// The paper's systems search over scikit-learn-style estimators; this
// package re-implements the relevant families from scratch: CART decision
// trees, random forests, extremely randomized trees, gradient boosting,
// k-nearest neighbours, multinomial logistic regression, linear SVMs,
// naive Bayes, and multi-layer perceptrons, plus regression trees and
// forests (needed internally by gradient boosting and by the Bayesian
// optimization surrogate).
//
// Every training and prediction call returns its compute cost as abstract
// FLOPs bucketed by workload kind. Those costs drive the virtual clock and
// the energy tracker — they are the reproduction's stand-in for wall-clock
// and RAPL readings, so models must account costs honestly: cost is
// accumulated inside the algorithms at loop granularity, not estimated
// from closed-form formulas after the fact.
package ml

import (
	"math"
	"math/rand/v2"

	"repro/internal/hw"
	"repro/internal/tabular"
)

// Cost is an abstract compute cost in FLOPs, bucketed by hardware workload
// kind (see internal/hw).
type Cost struct {
	// Generic is scalar, branchy work (distances, SGD updates).
	Generic float64
	// Tree is tree induction/traversal work.
	Tree float64
	// Matrix is dense linear-algebra work (MLP, attention, PCA).
	Matrix float64
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.Generic += other.Generic
	c.Tree += other.Tree
	c.Matrix += other.Matrix
}

// Total reports the summed FLOPs across buckets.
func (c Cost) Total() float64 { return c.Generic + c.Tree + c.Matrix }

// Scale returns the cost multiplied by f.
func (c Cost) Scale(f float64) Cost {
	return Cost{Generic: c.Generic * f, Tree: c.Tree * f, Matrix: c.Matrix * f}
}

// Works converts the cost to hardware work units with the given Amdahl
// parallel fraction applied to each bucket: one unit per nonzero bucket,
// in Generic → Tree → Matrix order, in works[:n]. The order is part of
// the contract, since a meter's float accumulation follows it. The units
// come back in an array so that converting a cost never allocates.
func (c Cost) Works(parallelFrac float64) (works [3]hw.Work, n int) {
	for _, w := range [3]hw.Work{
		{FLOPs: c.Generic, Kind: hw.KindGeneric},
		{FLOPs: c.Tree, Kind: hw.KindTree},
		{FLOPs: c.Matrix, Kind: hw.KindMatrix},
	} {
		if w.FLOPs > 0 {
			w.ParallelFrac = parallelFrac
			works[n] = w
			n++
		}
	}
	return works, n
}

// Classifier is a trainable multi-class probabilistic classifier.
// Training and prediction inputs are zero-copy tabular.Views over
// columnar frames; kernels read feature columns natively.
type Classifier interface {
	// Fit trains on the viewed data and reports the training cost.
	Fit(ds tabular.View, rng *rand.Rand) (Cost, error)
	// PredictProba returns one probability row per viewed row and the
	// prediction cost. It must only be called after a successful Fit.
	PredictProba(x tabular.View) ([][]float64, Cost)
	// Clone returns a fresh, untrained classifier with identical
	// hyperparameters.
	Clone() Classifier
	// Name identifies the model family and key hyperparameters.
	Name() string
	// ParallelFrac is the Amdahl fraction of Fit that can use multiple
	// cores (e.g. forests parallelize across trees; SGD barely at all).
	ParallelFrac() float64
}

// Regressor is a trainable single-output regressor, implemented by
// TreeRegressor and ForestRegressor. Gradient boosting and the
// Bayesian-optimization surrogate hold those concrete types.
type Regressor interface {
	// FitReg trains on the viewed rows with targets y (indexed by view
	// row) and reports the cost.
	FitReg(x tabular.View, y []float64, rng *rand.Rand) (Cost, error)
	// PredictReg returns one prediction per viewed row and the cost.
	PredictReg(x tabular.View) ([]float64, Cost)
}

// softmaxInPlace transforms logits into probabilities, numerically stably.
func softmaxInPlace(v []float64) {
	max := math.Inf(-1)
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		v[i] = e
		sum += e
	}
	if sum <= 0 {
		uniform := 1 / float64(len(v))
		for i := range v {
			v[i] = uniform
		}
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// normalizeInPlace scales non-negative v to sum to one, falling back to
// uniform when the sum vanishes.
func normalizeInPlace(v []float64) {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum <= 0 {
		uniform := 1 / float64(len(v))
		for i := range v {
			v[i] = uniform
		}
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// permInto fills perm with a random permutation of [0, len(perm)),
// drawing exactly as rng.Perm(len(perm)) does (math/rand/v2's
// Fisher-Yates), so a caller that reuses one buffer consumes the stream
// and gets the order that the allocating call would.
func permInto(rng *rand.Rand, perm []int) {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rng.Uint64N(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// uniformProba returns n rows of uniform class probabilities.
func uniformProba(n, classes int) [][]float64 {
	out := probaSlab(n, classes)
	for _, row := range out {
		for j := range row {
			row[j] = 1 / float64(classes)
		}
	}
	return out
}

// predictRows is the row-wise predict loop: it gathers each viewed row
// into one reused buffer and has score write that row's class
// probabilities into its row of one rows×classes probaSlab.
func predictRows(x tabular.View, classes int, score func(row, proba []float64)) [][]float64 {
	out := probaSlab(x.Rows(), classes)
	var row []float64
	for i, proba := range out {
		row = x.Row(i, row)
		score(row, proba)
	}
	return out
}

// probaSlab returns n zeroed rows of width k carved from one n×k slab.
// Each row is capped at its own width, so no row can write into the
// next; rows of one slab are still one allocation, which callers that
// hand rows out must treat as shared backing storage.
func probaSlab(n, k int) [][]float64 {
	slab := make([]float64, n*k)
	out := make([][]float64, n) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	for i := range out {
		out[i] = slab[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}
