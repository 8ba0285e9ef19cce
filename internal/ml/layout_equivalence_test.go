package ml

import (
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// permutedView copies ds into a fresh frame whose rows are stored in a
// shuffled physical order and returns the non-contiguous view that
// restores the original row order. The view is logically identical to
// ds.All() — same rows, same order — but forces every kernel down its
// index path instead of the contiguous fast path. Bit-identical output
// across the two views proves fit/predict depends only on the viewed
// row sequence, never on the physical layout.
func permutedView(ds *tabular.Frame, rng *rand.Rand) tabular.View {
	n, d := ds.Rows(), ds.Features()
	perm := rng.Perm(n) // perm[p] = original row stored at position p
	f := tabular.NewFrame(ds.Name, n, d)
	f.Classes = ds.Classes
	f.Y = make([]int, n)
	f.Kinds = append([]tabular.FeatureKind(nil), ds.Kinds...)
	idx := make([]int, n)
	for p, orig := range perm {
		for j := 0; j < d; j++ {
			f.Cols[j][p] = ds.Cols[j][orig]
		}
		f.Y[p] = ds.Y[orig]
		idx[orig] = p
	}
	return f.All().Select(idx)
}

// equivalenceModels lists one configured instance of every classifier
// family in the package.
func equivalenceModels() map[string]Classifier {
	return map[string]Classifier{
		"tree":   NewTreeClassifier(TreeParams{MaxDepth: 8}),
		"forest": NewForestClassifier(ForestParams{Trees: 10, Bootstrap: true}),
		"extra":  NewForestClassifier(ForestParams{Trees: 10, ExtraTrees: true}),
		"gbt":    NewBoostingClassifier(BoostingParams{Rounds: 10}),
		"knn":    NewKNN(KNNParams{K: 3}),
		"logreg": NewLogisticRegression(LinearParams{Epochs: 15}),
		"svm":    NewLinearSVM(LinearParams{Epochs: 15}),
		"gnb":    NewGaussianNB(),
		"bnb":    NewBernoulliNB(1),
		"mlp":    NewMLP(MLPParams{Hidden: []int{8}, Epochs: 10}),
	}
}

// TestLayoutEquivalenceClassifiers fits every classifier once on the
// contiguous identity view and once on a permuted-storage view of the
// same logical data, then demands bit-identical probabilities and FLOP
// costs on both a contiguous and a permuted test view.
func TestLayoutEquivalenceClassifiers(t *testing.T) {
	train := xorBlob(160, testRNG(21))
	test := xorBlob(60, testRNG(22))
	for name, proto := range equivalenceModels() {
		t.Run(name, func(t *testing.T) {
			a := proto.Clone()
			b := proto.Clone()
			fitCostA, errA := a.Fit(train.All(), testRNG(5))
			fitCostB, errB := b.Fit(permutedView(train, testRNG(77)), testRNG(5))
			if (errA == nil) != (errB == nil) {
				t.Fatalf("fit errors diverge: %v vs %v", errA, errB)
			}
			if errA != nil {
				t.Skipf("model does not fit this data: %v", errA)
			}
			if fitCostA != fitCostB {
				t.Errorf("fit cost diverges: %+v vs %+v", fitCostA, fitCostB)
			}
			probaA, costA := a.PredictProba(test.All())
			probaB, costB := b.PredictProba(permutedView(test, testRNG(78)))
			if costA != costB {
				t.Errorf("predict cost diverges: %+v vs %+v", costA, costB)
			}
			if len(probaA) != len(probaB) {
				t.Fatalf("row counts diverge: %d vs %d", len(probaA), len(probaB))
			}
			for i := range probaA {
				for j := range probaA[i] {
					if probaA[i][j] != probaB[i][j] {
						t.Fatalf("proba (%d,%d): %v vs %v — layout leaked into the math",
							i, j, probaA[i][j], probaB[i][j])
					}
				}
			}
		})
	}
}

// TestLayoutEquivalenceRegressors covers the regression kernels the
// surrogate models rely on.
func TestLayoutEquivalenceRegressors(t *testing.T) {
	ds := separableBlob(120, 3, testRNG(31))
	y := make([]float64, ds.Rows())
	for i := range y {
		y[i] = ds.Cols[0][i]*1.5 - ds.Cols[1][i] + 0.25*float64(ds.Y[i])
	}
	// Targets are indexed by view position, which both views share.
	models := map[string]Regressor{
		"tree-reg":   NewTreeRegressor(TreeParams{MaxDepth: 6}),
		"forest-reg": NewForestRegressor(ForestParams{Trees: 8, Bootstrap: true}),
	}
	test := separableBlob(40, 3, testRNG(32))
	for name, proto := range models {
		t.Run(name, func(t *testing.T) {
			a, b := proto, proto
			switch m := proto.(type) {
			case *TreeRegressor:
				a, b = NewTreeRegressor(m.Params), NewTreeRegressor(m.Params)
			case *ForestRegressor:
				a, b = NewForestRegressor(m.Params), NewForestRegressor(m.Params)
			}
			costA, errA := a.FitReg(ds.All(), y, testRNG(6))
			costB, errB := b.FitReg(permutedView(ds, testRNG(79)), y, testRNG(6))
			if errA != nil || errB != nil {
				t.Fatalf("fit errors: %v, %v", errA, errB)
			}
			if costA != costB {
				t.Errorf("fit cost diverges: %+v vs %+v", costA, costB)
			}
			predA, pcA := a.PredictReg(test.All())
			predB, pcB := b.PredictReg(permutedView(test, testRNG(80)))
			if pcA != pcB {
				t.Errorf("predict cost diverges: %+v vs %+v", pcA, pcB)
			}
			for i := range predA {
				if predA[i] != predB[i] {
					t.Fatalf("%s prediction %d: %v vs %v", name, i, predA[i], predB[i])
				}
			}
		})
	}
}
