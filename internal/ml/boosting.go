package ml

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tabular"
)

// BoostingParams configure gradient-boosted trees.
type BoostingParams struct {
	// Rounds is the number of boosting iterations.
	Rounds int
	// LearningRate shrinks each round's contribution.
	LearningRate float64
	// Tree holds the per-round regression-tree parameters; depth
	// defaults to 3.
	Tree TreeParams
	// Subsample is the row fraction used per round (stochastic gradient
	// boosting); 0 or 1 uses all rows.
	Subsample float64
}

func (p BoostingParams) normalized() BoostingParams {
	if p.Rounds < 1 {
		p.Rounds = 50
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.Tree.MaxDepth <= 0 {
		p.Tree.MaxDepth = 3
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	return p
}

// BoostingClassifier is a gradient-boosted tree classifier with a softmax
// (multinomial deviance) objective: each round fits one regression tree per
// class to the probability residuals.
type BoostingClassifier struct {
	Params  BoostingParams
	classes int
	// rounds[r][k] is the class-k tree of round r.
	rounds [][]*TreeRegressor
	prior  []float64
}

// NewBoostingClassifier constructs a gradient-boosting classifier.
func NewBoostingClassifier(p BoostingParams) *BoostingClassifier {
	return &BoostingClassifier{Params: p}
}

// Fit implements Classifier.
func (b *BoostingClassifier) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	p := b.Params.normalized()
	b.Params = p
	b.classes = ds.Classes()
	n := ds.Rows()
	labels := ds.LabelsInto(nil)

	// Log-prior initialization.
	b.prior = make([]float64, b.classes)
	counts := ds.ClassCounts()
	for k, c := range counts {
		b.prior[k] = float64(c+1) / float64(n+b.classes)
	}
	logits := make([][]float64, n) //greenlint:allow rowmajor per-row class logits, class-wide not feature-wide
	for i := range logits {
		logits[i] = make([]float64, b.classes)
	}

	var cost Cost
	b.rounds = b.rounds[:0]
	proba := make([]float64, b.classes)
	targets := make([]float64, n)
	// Residual columns are rewritten in full every round.
	residuals := make([][]float64, b.classes) //greenlint:allow rowmajor per-class residual columns - columnar
	for k := range residuals {
		residuals[k] = make([]float64, n)
	}
	// Every tree of a round fits the same view, and without subsampling
	// every round does: the view's root presort is built once per view,
	// before the class loop, and shared read-only by its trees.
	var presort *keyPresort
	defer func() { presort.release() }()
	for r := 0; r < p.Rounds; r++ {
		roundTrees := make([]*TreeRegressor, b.classes)
		// Residuals for every class under current logits.
		for i := 0; i < n; i++ {
			copy(proba, logits[i])
			softmaxInPlace(proba)
			for k := 0; k < b.classes; k++ {
				indicator := 0.0
				if labels[i] == k {
					indicator = 1.0
				}
				residuals[k][i] = indicator - proba[k]
			}
		}
		cost.Generic += float64(n * b.classes * 3)

		fitView := ds
		useIdx := []int(nil)
		if p.Subsample < 1 {
			m := int(p.Subsample * float64(n))
			if m < 2 {
				m = 2
			}
			useIdx = rng.Perm(n)[:m]
			fitView = ds.Select(useIdx)
		}
		if r == 0 || useIdx != nil {
			presort.release()
			presort = newKeyPresort(fitView)
		}

		for k := 0; k < b.classes; k++ {
			tree := NewTreeRegressor(p.Tree)
			t := targets[:fitView.Rows()]
			if useIdx == nil {
				copy(t, residuals[k])
			} else {
				for j, i := range useIdx {
					t[j] = residuals[k][i]
				}
			}
			tree.presort = presort
			c, err := tree.FitReg(fitView, t, rng)
			tree.presort = nil
			cost.Add(c) // partial cost of a failed fit is still compute spent
			if err != nil {
				return cost, fmt.Errorf("ml: boosting round %d class %d: %w", r, k, err)
			}
			pred, c2 := tree.PredictReg(ds)
			cost.Add(c2)
			for i, v := range pred {
				logits[i][k] += p.LearningRate * v
			}
			roundTrees[k] = tree
		}
		b.rounds = append(b.rounds, roundTrees)
	}
	return cost, nil
}

// PredictProba implements Classifier.
func (b *BoostingClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if len(b.rounds) == 0 {
		return uniformProba(m, max(b.classes, 2)), Cost{}
	}
	var cost Cost
	out := make([][]float64, m)    //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	logits := make([][]float64, m) //greenlint:allow rowmajor per-row class logits, class-wide not feature-wide
	for i := range logits {
		logits[i] = make([]float64, b.classes)
	}
	for _, roundTrees := range b.rounds {
		for k, tree := range roundTrees {
			pred, c := tree.PredictReg(x)
			cost.Add(c)
			for i, v := range pred {
				logits[i][k] += b.Params.LearningRate * v
			}
		}
	}
	for i := 0; i < m; i++ {
		softmaxInPlace(logits[i])
		out[i] = logits[i]
	}
	cost.Generic += float64(m * b.classes * 2)
	return out, cost
}

// Clone implements Classifier.
func (b *BoostingClassifier) Clone() Classifier { return NewBoostingClassifier(b.Params) }

// Name implements Classifier.
func (b *BoostingClassifier) Name() string {
	p := b.Params.normalized()
	return fmt.Sprintf("gbt(rounds=%d,lr=%.2g,depth=%d)", p.Rounds, p.LearningRate, p.Tree.MaxDepth)
}

// ParallelFrac implements Classifier: rounds are sequential but the
// per-class trees within a round parallelize.
func (b *BoostingClassifier) ParallelFrac() float64 { return 0.5 }
