package pipeline

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/ml"
	"repro/internal/preprocess"
	"repro/internal/tabular"
)

// Pipeline is a sequence of preprocessors followed by one classifier — the
// unit every AutoML system in this repository searches for, trains and
// ships.
type Pipeline struct {
	// Pre holds the ordered preprocessors (data preprocessors first,
	// feature preprocessors after, matching paper Fig. 1).
	Pre []preprocess.Transformer
	// Model is the final classifier.
	Model ml.Classifier
	// ModelFamily is the registry name of the model family.
	ModelFamily string
	fitted      bool
}

// releaseUnless returns v's frame to the pool unless it is one of the
// protected frames (the caller's input, or the frame a later stage still
// reads). Releasing a non-pooled frame is a no-op.
func releaseUnless(v tabular.View, protect ...*tabular.Frame) {
	f := v.Frame()
	if f == nil {
		return
	}
	for _, p := range protect {
		if f == p {
			return
		}
	}
	f.Release()
}

// Fit trains the preprocessors and the model on ds and returns the total
// training cost. The pipeline releases every frame it creates: each
// intermediate transform frame goes back to the frame pool as soon as the
// next stage has consumed it, and the final one once the model has fit,
// since no model keeps a reference into its training frame's float
// columns (labels are never pooled). The caller's ds is never released.
func (p *Pipeline) Fit(ds tabular.View, rng *rand.Rand) (ml.Cost, error) {
	if p.Model == nil {
		return ml.Cost{}, fmt.Errorf("pipeline: nil model")
	}
	var cost ml.Cost
	cur := ds
	for _, t := range p.Pre {
		next, c, err := t.FitTransform(cur, rng)
		cost.Add(c)
		if err != nil {
			releaseUnless(cur, ds.Frame())
			return cost, fmt.Errorf("pipeline: %s: %w", t.Name(), err)
		}
		releaseUnless(cur, ds.Frame(), next.Frame())
		cur = next
	}
	c, err := p.Model.Fit(cur, rng)
	cost.Add(c)
	releaseUnless(cur, ds.Frame())
	if err != nil {
		return cost, fmt.Errorf("pipeline: %s: %w", p.Model.Name(), err)
	}
	p.fitted = true
	return cost, nil
}

// PredictProba transforms the view through the fitted preprocessors and
// returns the model's probability rows plus the total inference cost.
// Every intermediate frame — including the last transform output, which
// prediction does not retain — goes back to the frame pool.
func (p *Pipeline) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	var cost ml.Cost
	cur := x
	for _, t := range p.Pre {
		next, c := t.Transform(cur)
		cost.Add(c)
		releaseUnless(cur, x.Frame(), next.Frame())
		cur = next
	}
	proba, c := p.Model.PredictProba(cur)
	cost.Add(c)
	releaseUnless(cur, x.Frame())
	return proba, cost
}

// Fitted reports whether Fit has completed successfully.
func (p *Pipeline) Fitted() bool { return p.fitted }

// ParallelFrac reports the Amdahl parallel fraction of fitting the
// pipeline, dominated by the model.
func (p *Pipeline) ParallelFrac() float64 {
	if p.Model == nil {
		return 0
	}
	return p.Model.ParallelFrac()
}

// Name renders a human-readable pipeline description.
func (p *Pipeline) Name() string {
	var parts []string
	for _, t := range p.Pre {
		parts = append(parts, t.Name())
	}
	if p.Model != nil {
		parts = append(parts, p.Model.Name())
	}
	return strings.Join(parts, " -> ")
}
