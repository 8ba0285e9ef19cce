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
	// trees[r*classes+k] is the class-k tree of round r.
	trees []*TreeRegressor
	prior []float64
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
	logits := probaSlab(n, b.classes)

	var cost Cost
	b.trees = make([]*TreeRegressor, 0, p.Rounds*b.classes)
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
	// perm is every subsampled round's permutation. Neither the round's
	// view (Select aliases the index slice) nor anything fitted from it
	// outlives the round: the presort copies the rows into its keys and a
	// fitted tree keeps only its nodes.
	var perm []int
	if p.Subsample < 1 {
		perm = make([]int, n)
	}
	for r := 0; r < p.Rounds; r++ {
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
			permInto(rng, perm)
			useIdx = perm[:m]
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
			// The tree's leaves add straight into the class-k logits. Its
			// traversal Cost must follow its own fit Cost: cost.Tree also
			// carries non-integer split costs, so deferring the integer
			// visit terms would regroup the float sum.
			b.trees = append(b.trees, tree)
			visits := walkRows(b.trees[len(b.trees)-1:], ds, classLogits{logits: logits, lr: p.LearningRate, class: k})
			cost.Add(Cost{Tree: 2 * visits})
		}
	}
	return cost, nil
}

// PredictProba implements Classifier. One fused walk adds every tree's
// shrunken leaf value straight into its class logit in one rows×classes
// slab, in round order, and each row is softmaxed in place.
func (b *BoostingClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if len(b.trees) == 0 {
		return uniformProba(m, max(b.classes, 2)), Cost{}
	}
	out := probaSlab(m, b.classes)
	visits := walkRows(b.trees, x, roundLogits{logits: out, lr: b.Params.LearningRate, classes: b.classes})
	for _, row := range out {
		softmaxInPlace(row)
	}
	return out, Cost{Generic: float64(m * b.classes * 2), Tree: 2 * visits}
}

// classLogits is boosting's fit-time adder: one new tree's shrunken leaf
// values go into one class column of the training logits.
type classLogits struct {
	logits [][]float64
	lr     float64
	class  int
}

func (o classLogits) add(_, i int, leaf []float64) { o.logits[i][o.class] += o.lr * leaf[0] }

// roundLogits is boosting's predict adder: tree t of the round-major
// tree list adds its shrunken leaf value into class t%classes.
type roundLogits struct {
	logits  [][]float64
	lr      float64
	classes int
}

func (o roundLogits) add(t, i int, leaf []float64) { o.logits[i][t%o.classes] += o.lr * leaf[0] }

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
