package ml

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tabular"
)

// LinearParams configure SGD-trained linear models.
type LinearParams struct {
	// Epochs is the number of passes over the data.
	Epochs int
	// LearningRate is the initial SGD step size (decayed 1/sqrt(t)).
	LearningRate float64
	// L2 is the ridge regularization strength.
	L2 float64
}

func (p LinearParams) normalized() LinearParams {
	if p.Epochs < 1 {
		p.Epochs = 20
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.L2 < 0 {
		p.L2 = 0
	}
	return p
}

// LinearModel is a linear classifier trained with SGD: one weight row
// plus bias per class. Under the log loss it is multinomial logistic
// regression; under the hinge loss it is a one-vs-rest linear
// support-vector classifier. Either way probabilities are a softmax
// over the class scores.
type LinearModel struct {
	Params  LinearParams
	hinge   bool
	weights [][]float64
	bias    []float64
	classes int
}

// NewLogisticRegression constructs a logistic-regression classifier.
func NewLogisticRegression(p LinearParams) *LinearModel {
	return &LinearModel{Params: p}
}

// NewLinearSVM constructs a linear SVM classifier.
func NewLinearSVM(p LinearParams) *LinearModel {
	return &LinearModel{Params: p, hinge: true}
}

// Fit implements Classifier.
func (lm *LinearModel) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	p := lm.Params.normalized()
	lm.Params = p
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	lm.classes = k
	lm.weights = make([][]float64, k) //greenlint:allow rowmajor class-by-feature weight matrix - model parameters
	for c := range lm.weights {
		lm.weights[c] = make([]float64, d)
	}
	lm.bias = make([]float64, k)

	labels := ds.LabelsInto(nil)
	proba := make([]float64, k)
	rowBuf := make([]float64, d)
	perm := make([]int, n)
	step := 0
	for epoch := 0; epoch < p.Epochs; epoch++ {
		permInto(rng, perm)
		for _, i := range perm {
			step++
			row := ds.Row(i, rowBuf)
			rowBuf = row
			eta := p.LearningRate / (1 + 0.01*float64(step))
			if lm.hinge {
				lm.hingeStep(row, labels[i], eta, p.L2)
			} else {
				lm.logStep(row, labels[i], eta, p.L2, proba)
			}
		}
	}
	flopsPerWeight := 4.0
	if lm.hinge {
		flopsPerWeight = 3
	}
	return Cost{Generic: float64(p.Epochs) * float64(n) * float64(d) * float64(k) * flopsPerWeight}, nil
}

// logStep is one softmax cross-entropy SGD update on row, whose class
// is label; proba is k-wide scratch.
func (lm *LinearModel) logStep(row []float64, label int, eta, l2 float64, proba []float64) {
	lm.logits(row, proba)
	softmaxInPlace(proba)
	for c, w := range lm.weights {
		grad := proba[c]
		if label == c {
			grad -= 1
		}
		for j, v := range row {
			w[j] -= eta * (grad*v + l2*w[j])
		}
		lm.bias[c] -= eta * grad
	}
}

// hingeStep is one one-vs-rest hinge-loss SGD update on row, whose
// class is label.
func (lm *LinearModel) hingeStep(row []float64, label int, eta, l2 float64) {
	for c, w := range lm.weights {
		target := -1.0
		if label == c {
			target = 1.0
		}
		var margin float64
		for j, v := range row {
			margin += w[j] * v
		}
		margin = target * (margin + lm.bias[c])
		if margin < 1 {
			for j, v := range row {
				w[j] -= eta * (-target*v + l2*w[j])
			}
			lm.bias[c] += eta * target
		} else if l2 > 0 {
			for j := range w {
				w[j] -= eta * l2 * w[j]
			}
		}
	}
}

func (lm *LinearModel) logits(row []float64, out []float64) {
	for k, w := range lm.weights {
		var dot float64
		for j, v := range row {
			dot += w[j] * v
		}
		out[k] = dot + lm.bias[k]
	}
}

// PredictProba implements Classifier.
func (lm *LinearModel) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if len(lm.weights) == 0 {
		return uniformProba(m, max(lm.classes, 2)), Cost{}
	}
	out := predictRows(x, lm.classes, func(row, proba []float64) {
		lm.logits(row, proba)
		softmaxInPlace(proba)
	})
	return out, Cost{Generic: float64(m) * float64(x.Features()) * float64(lm.classes) * 2}
}

// Clone implements Classifier.
func (lm *LinearModel) Clone() Classifier { return &LinearModel{Params: lm.Params, hinge: lm.hinge} }

// Name implements Classifier.
func (lm *LinearModel) Name() string {
	p := lm.Params.normalized()
	kind := "logreg"
	if lm.hinge {
		kind = "svm"
	}
	return fmt.Sprintf("%s(epochs=%d,l2=%.2g)", kind, p.Epochs, p.L2)
}

// ParallelFrac implements Classifier: SGD is inherently sequential.
func (lm *LinearModel) ParallelFrac() float64 { return 0.1 }
