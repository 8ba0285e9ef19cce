// Package ensemble implements the ensembling strategies of the paper's
// systems (Table 1): Caruana greedy ensemble selection (ASKL, AutoGluon),
// bagging and stacking (AutoGluon), and unweighted averaging (TabPFN).
//
// Ensembling is the paper's central energy trade-off: it improves
// generalization but multiplies inference cost with the number of member
// models (Observation O1). The types here therefore propagate per-member
// prediction costs faithfully.
package ensemble

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// Predictor is anything that yields class probabilities at a cost.
// *pipeline.Pipeline satisfies it.
type Predictor interface {
	PredictProba(x tabular.View) ([][]float64, ml.Cost)
}

// Weighted combines member predictors with non-negative weights.
type Weighted struct {
	// Members are the base predictors.
	Members []Predictor
	// Weights holds one non-negative weight per member; they need not
	// sum to one (normalization happens at prediction).
	Weights []float64
}

// PredictProba implements Predictor. Members with zero weight are skipped
// entirely — they cost nothing at inference, matching how Caruana
// selection concentrates weight on few models.
func (w *Weighted) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	var cost ml.Cost
	var out [][]float64
	var totalWeight float64
	for m, member := range w.Members {
		weight := w.Weights[m]
		if weight <= 0 {
			continue
		}
		proba, c := member.PredictProba(x)
		cost.Add(c)
		if out == nil {
			out = make([][]float64, len(proba))
			for i := range out {
				out[i] = make([]float64, len(proba[i]))
			}
		}
		for i, row := range proba {
			for j, p := range row {
				out[i][j] += weight * p
			}
		}
		totalWeight += weight
	}
	if out == nil || totalWeight <= 0 {
		return nil, cost
	}
	for i := range out {
		for j := range out[i] {
			out[i][j] /= totalWeight
		}
	}
	cost.Generic += float64(x.Rows()) * 4
	return out, cost
}

// ActiveMembers reports how many members carry positive weight.
func (w *Weighted) ActiveMembers() int {
	n := 0
	for _, weight := range w.Weights {
		if weight > 0 {
			n++
		}
	}
	return n
}

// CaruanaResult is the outcome of greedy ensemble selection.
type CaruanaResult struct {
	// Weights holds the selection counts per candidate, normalizable to
	// ensemble weights.
	Weights []float64
	// Score is the ensemble's final validation balanced accuracy.
	Score float64
	// Cost is the compute spent on selection — the step that makes
	// ASKL overrun its budget on large validation sets (paper §3.10).
	Cost ml.Cost
}

// CaruanaSelect performs greedy forward ensemble selection with
// replacement (Caruana et al. 2004): starting from the single best model,
// repeatedly add the candidate that maximizes validation balanced accuracy
// of the averaged ensemble. valProbas[m] holds model m's validation
// probability rows.
func CaruanaSelect(valProbas [][][]float64, yVal []int, classes, rounds int) (CaruanaResult, error) {
	numModels := len(valProbas)
	if numModels == 0 {
		return CaruanaResult{}, errors.New("ensemble: no candidates for selection")
	}
	n := len(yVal)
	if n == 0 {
		return CaruanaResult{}, errors.New("ensemble: empty validation set")
	}
	for m, proba := range valProbas {
		if len(proba) != n {
			return CaruanaResult{}, fmt.Errorf("ensemble: candidate %d has %d validation rows, want %d", m, len(proba), n)
		}
	}
	if rounds < 1 {
		rounds = numModels
	}

	var cost ml.Cost
	weights := make([]float64, numModels)
	sum := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, classes)
	}
	selected := 0
	bestScore := -1.0
	labels := make([]int, n)
	trial := make([]float64, classes)

	for round := 0; round < rounds; round++ {
		bestCandidate := -1
		bestCandidateScore := -1.0
		for m := 0; m < numModels; m++ {
			// Score ensemble sum + candidate m.
			for i := 0; i < n; i++ {
				row := valProbas[m][i]
				for j := 0; j < classes && j < len(row); j++ {
					trial[j] = sum[i][j] + row[j]
				}
				best := 0
				for j := 1; j < classes; j++ {
					if trial[j] > trial[best] {
						best = j
					}
				}
				labels[i] = best
			}
			score := metrics.BalancedAccuracy(yVal, labels, classes)
			// Ties prefer the candidate selected least so far: greedy
			// selection with replacement otherwise degenerates into a
			// single-member ensemble on small validation sets, which
			// neither Caruana's original nor the AutoML systems built
			// on it exhibit.
			if score > bestCandidateScore ||
				(score == bestCandidateScore && bestCandidate >= 0 && weights[m] < weights[bestCandidate]) {
				bestCandidateScore = score
				bestCandidate = m
			}
		}
		cost.Generic += float64(numModels) * float64(n) * float64(classes) * 3
		if bestCandidate < 0 {
			break
		}
		// Selection runs for the full round count (auto-sklearn uses a
		// fixed ensemble size), but a round that would *strictly lower*
		// the score stops early.
		if selected > 0 && bestCandidateScore < bestScore {
			break
		}
		weights[bestCandidate]++
		for i := 0; i < n; i++ {
			row := valProbas[bestCandidate][i]
			for j := 0; j < classes && j < len(row); j++ {
				sum[i][j] += row[j]
			}
		}
		bestScore = bestCandidateScore
		selected++
	}
	return CaruanaResult{Weights: weights, Score: bestScore, Cost: cost}, nil
}

// Bagged is a k-fold bagged model: k clones of one pipeline, each trained
// on k-1 folds. Prediction averages the fold models, which multiplies
// inference cost by k — unless the bag is refit into a single model
// (AutoGluon's inference-optimized preset, paper §3.4).
type Bagged struct {
	// Folds holds the fitted per-fold pipelines.
	Folds []*pipeline.Pipeline
	// OOFProba holds the out-of-fold probability rows aligned with
	// OOFLabels (stacking features and honest validation data).
	OOFProba [][]float64
	// OOFLabels holds the matching true labels.
	OOFLabels []int
	// OOFIndex maps each OOF position to its source-dataset row index,
	// letting callers align OOF predictions across bags with different
	// fold seeds.
	OOFIndex []int
	// refit, when set, replaces fold averaging at prediction time.
	refit *pipeline.Pipeline
}

// FitBagged trains k fold clones of the prototype pipeline and collects
// out-of-fold predictions. The fold assignment is derived from foldSeed so
// that several bags over the same dataset share folds (their OOF rows then
// align, which stacking requires). It returns the per-fold training costs
// separately so the caller can schedule them in parallel — bagging is the
// embarrassingly parallel workload of paper §3.3.
func FitBagged(proto func() *pipeline.Pipeline, ds tabular.View, k int, foldSeed uint64, rng *rand.Rand) (*Bagged, []ml.Cost, error) {
	if k < 2 {
		k = 2
	}
	foldRng := rand.New(rand.NewPCG(foldSeed, 0xf01d))
	folds := ds.KFoldIndices(k, foldRng)
	bag := &Bagged{}
	costs := make([]ml.Cost, 0, k)
	for f := range folds {
		var trainIdx []int
		for g := range folds {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		train := ds.Select(trainIdx)
		val := ds.Select(folds[f])
		p := proto()
		cost, err := p.Fit(train, rng)
		if err != nil {
			// The failed fold still spent compute up to the failure;
			// hand its partial cost back so the caller meters it.
			costs = append(costs, cost)
			return nil, costs, fmt.Errorf("ensemble: bagged fold %d: %w", f, err)
		}
		proba, predCost := p.PredictProba(val)
		cost.Add(predCost)
		costs = append(costs, cost)
		bag.Folds = append(bag.Folds, p)
		bag.OOFProba = append(bag.OOFProba, proba...)
		bag.OOFLabels = append(bag.OOFLabels, val.LabelsInto(nil)...)
		bag.OOFIndex = append(bag.OOFIndex, folds[f]...)
	}
	return bag, costs, nil
}

// Refit collapses the bag into a single model trained on the full training
// data (AutoGluon's "refit" / inference-optimized setting). It returns the
// refit training cost.
func (b *Bagged) Refit(proto func() *pipeline.Pipeline, ds tabular.View, rng *rand.Rand) (ml.Cost, error) {
	p := proto()
	cost, err := p.Fit(ds, rng)
	if err != nil {
		return cost, fmt.Errorf("ensemble: refit: %w", err)
	}
	b.refit = p
	return cost, nil
}

// Refitted reports whether the bag has been collapsed.
func (b *Bagged) Refitted() bool { return b.refit != nil }

// PredictProba implements Predictor: averaged fold models, or the single
// refit model when present.
func (b *Bagged) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	if b.refit != nil {
		return b.refit.PredictProba(x)
	}
	if len(b.Folds) == 0 {
		return nil, ml.Cost{}
	}
	var cost ml.Cost
	var out [][]float64
	for _, fold := range b.Folds {
		proba, c := fold.PredictProba(x)
		cost.Add(c)
		if out == nil {
			out = make([][]float64, len(proba))
			for i := range out {
				out[i] = make([]float64, len(proba[i]))
			}
		}
		for i, row := range proba {
			for j, p := range row {
				out[i][j] += p
			}
		}
	}
	inv := 1 / float64(len(b.Folds))
	for i := range out {
		for j := range out[i] {
			out[i][j] *= inv
		}
	}
	return out, cost
}

// StackFeatures builds layer-(l+1) inputs by appending each bag's
// probability columns to the original features (AutoGluon-style
// stacking, where "all models have access to all information from the
// other models of the lower layers"). probas[b][i] is bag b's probability
// row for view row i. The result is an unlabeled frame with nil Kinds, so
// layer 2 reads every stacked column as numeric, the input's categorical
// codes included; copying x's kinds would one-hot encode those codes and
// change the layer-2 models.
func StackFeatures(x tabular.View, probas [][][]float64) *tabular.Frame {
	n, d := x.Rows(), x.Features()
	width := d
	for _, proba := range probas {
		if n > 0 {
			width += len(proba[0])
		}
	}
	f := tabular.NewFrame("", n, width)
	for j := 0; j < d; j++ {
		// A subset view gathers straight into the new column; an
		// identity view aliases its own column, which copy moves.
		copy(f.Cols[j], x.ColInto(j, f.Cols[j]))
	}
	k := d
	for _, proba := range probas {
		for c := 0; n > 0 && c < len(proba[0]); c++ {
			for i, row := range proba {
				f.Cols[k][i] = row[c]
			}
			k++
		}
	}
	return f
}
