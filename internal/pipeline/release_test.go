package pipeline

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/openml"
	"repro/internal/preprocess"
	"repro/internal/tabular"
)

// churnFramePool takes batches of pooled frames of the given shape,
// fills them with NaN and releases them, so any slab a fitted model
// still references after Pipeline.Fit released it gets overwritten.
// Each round holds several frames at once to reach past the pool's
// per-P private slot.
func churnFramePool(rows, features int) {
	for round := 0; round < 4; round++ {
		var held []*tabular.Frame
		for k := 0; k < 4; k++ {
			f := tabular.NewPooledFrame("churn", rows, features)
			for _, col := range f.Cols {
				for i := range col {
					col[i] = math.NaN()
				}
			}
			held = append(held, f)
		}
		for _, f := range held {
			f.Release()
		}
	}
}

// TestFittedModelsSurviveFramePoolChurn is the rail for the frame
// ownership rule: Pipeline.Fit releases every frame it creates, so no
// model may keep a reference into its training frame. For every model
// family it fits imputer -> scaler -> model, predicts a held-out view,
// churns the frame pool with NaN-filled frames of the fit frame's
// shape, and predicts again: probabilities and Cost must be
// bit-identical. Under -race sync.Pool drops some Puts, so the rail can
// miss a fault there, but it never fails a correct build.
func TestFittedModelsSurviveFramePoolChurn(t *testing.T) {
	const rows, trainRows = 160, 120
	data := blob(rows, testRNG(11))
	for i := 0; i < rows; i += 7 {
		data.Cols[i%2][i] = math.NaN() // work for the imputer
	}
	idx := testRNG(12).Perm(rows)
	train := tabular.NewView(data, idx[:trainRows])
	held := tabular.NewView(data, idx[trainRows:])
	for _, family := range AllModels() {
		def, _ := ModelByName(family)
		p := &Pipeline{
			Pre:         []preprocess.Transformer{&preprocess.Imputer{}, &preprocess.StandardScaler{}},
			Model:       def.Build(Config{}),
			ModelFamily: family,
		}
		if _, err := p.Fit(train, testRNG(13)); err != nil {
			t.Fatalf("%s: fit: %v", family, err)
		}
		want, wantCost := p.PredictProba(held)
		churnFramePool(trainRows, data.Features())
		got, gotCost := p.PredictProba(held)
		if gotCost != wantCost {
			t.Errorf("%s: predict Cost %+v after pool churn, %+v before", family, gotCost, wantCost)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: probabilities changed after pool churn: the fitted model reads a released frame", family)
		}
	}
}

// TestFitNeverReleasesCallerFrame: a pass-through stage hands the
// caller's own frame to the model, and Fit must not release it.
func TestFitNeverReleasesCallerFrame(t *testing.T) {
	src := blob(12, testRNG(14))
	f := tabular.NewPooledFrame(src.Name, src.Rows(), src.Features())
	for j, col := range src.Cols {
		copy(f.Cols[j], col)
	}
	f.Y, f.Classes = src.Y, src.Classes
	defer f.Release()
	def, _ := ModelByName("knn")
	p := &Pipeline{Pre: []preprocess.Transformer{preprocess.Identity{}}, Model: def.Build(Config{})}
	if _, err := p.Fit(f.All(), testRNG(15)); err != nil {
		t.Fatal(err)
	}
	if f.Cols == nil {
		t.Error("Pipeline.Fit released the caller's pooled frame")
	}
}

// sameBits reports whether two probability matrices are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

var pipelineProbaSink [][]float64

// BenchmarkPipelineFitPredict is the preprocess layer's benchmark: one
// imputer -> one-hot -> standard scaler -> random forest pipeline fit on
// a generated "adult" train split and scored on its test split, at
// kernel parallelism 1. Transform frames come from the frame pool, so
// B/op shows whether fit and predict recycle them.
func BenchmarkPipelineFitPredict(b *testing.B) {
	spec, _ := openml.ByName("adult")
	train, test := openml.Generate(spec, openml.DefaultScale(), 1).All().TrainTestSplit(testRNG(1))
	forest, _ := ModelByName("random_forest")
	prev := ml.SetParallelism(1)
	defer ml.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Pipeline{
			Pre: []preprocess.Transformer{
				&preprocess.Imputer{}, &preprocess.OneHotEncoder{}, &preprocess.StandardScaler{},
			},
			Model: forest.Build(Config{"random_forest.trees": 20}),
		}
		if _, err := p.Fit(train, testRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
		pipelineProbaSink, _ = p.PredictProba(test)
	}
}
