package main

import (
	"repro/internal/automl"
	"repro/internal/ensemble"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// timedSystem records a span around every Fit of the system it wraps and
// wraps the fitted predictor in a timedPredictor. It passes every argument
// and result through unchanged and only reads the clock, so a grid
// produces the same records with and without it.
type timedSystem struct {
	automl.System
	tr *Tracer
}

// Fit implements automl.System.
func (s timedSystem) Fit(train tabular.View, opts automl.Options) (*automl.Result, error) {
	name := s.Name()
	s.tr.Add("automl.fit_calls."+name, 1)
	id := s.tr.BeginChild("automl.fit." + name)
	defer s.tr.End(id)
	res, err := s.System.Fit(train, opts)
	if res != nil && res.Predictor != nil {
		res.Predictor = newTimedPredictor(res.Predictor, "automl", s.tr)
	}
	return res, err
}

// timedPredictor records a span, and counts calls and rows, around every
// PredictProba of the predictor it wraps. It serves both an automl
// result's predictor and a served model, whose interfaces share the one
// method; the layer prefixes its span and counter names.
type timedPredictor struct {
	inner             ensemble.Predictor
	tr                *Tracer
	span, calls, rows string
}

func newTimedPredictor(inner ensemble.Predictor, layer string, tr *Tracer) timedPredictor {
	return timedPredictor{
		inner: inner,
		tr:    tr,
		span:  layer + ".predict",
		calls: layer + ".predict_calls",
		rows:  layer + ".predict_rows",
	}
}

// PredictProba implements ensemble.Predictor and serve.Predictor.
func (p timedPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	p.tr.Add(p.calls, 1)
	p.tr.Add(p.rows, float64(x.Rows()))
	id := p.tr.BeginChild(p.span)
	defer p.tr.End(id)
	return p.inner.PredictProba(x)
}
