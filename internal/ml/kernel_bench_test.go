package ml

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// This file benchmarks the kernel families that previously had no
// recorded baseline — kNN, MLP and the SGD linear models — plus the
// within-fit parallel paths and the row-wise predict loop. Together with tree_bench_test.go they are
// the inputs of scripts/bench.sh, which folds min-of-N runs into
// BENCH_4.json and gates kernel PRs on regressions.

// BenchmarkKNNFit measures kNN training (column memorization): one copy
// of the training columns into storage the model owns, recorded so a
// regression into per-column allocation or row-major gathering shows up.
func BenchmarkKNNFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKNN(KNNParams{K: 5})
		if _, err := k.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNPredict measures the lazy learner's real cost profile: the
// blocked query-against-all-rows distance scan plus neighbour selection.
func BenchmarkKNNPredict(b *testing.B) {
	train := benchDataset(600, 16, 3, 2)
	test := benchDataset(100, 16, 3, 5)
	k := NewKNN(KNNParams{K: 5})
	if _, err := k.Fit(train.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PredictProba(test.All())
	}
}

// BenchmarkMLPFit measures the dense matrix workload: minibatch SGD
// through one hidden layer.
func BenchmarkMLPFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMLP(MLPParams{Hidden: []int{32}, Epochs: 5})
		if _, err := m.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearFit measures the SGD logistic-regression kernel, the
// cheapest model family in the zoo and the most sensitive to per-row
// gather overhead.
func BenchmarkLinearFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := NewLogisticRegression(LinearParams{Epochs: 10})
		if _, err := lr.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePredict measures the serving path's predict layer:
// the fused tree walk under a 50-tree random forest and 50-round
// gradient boosting, on one row (a closed-loop serving batch) and on
// one full kernel block. The one-row case cycles through the block's
// distinct rows, each its own one-row frame as a serving batch is: one
// fixed row would let the branch predictor learn its path and report a
// walk no real request stream gets.
func BenchmarkEnsemblePredict(b *testing.B) {
	train := benchDataset(600, 16, 3, 2)
	test := benchDataset(kernelBlock, 16, 3, 5)
	rf := NewForestClassifier(ForestParams{Trees: 50, Bootstrap: true})
	if _, err := rf.Fit(train.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
		b.Fatal(err)
	}
	gbt := NewBoostingClassifier(BoostingParams{Rounds: 50})
	if _, err := gbt.Fit(train.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
		b.Fatal(err)
	}
	single := make([]tabular.View, test.Rows())
	for i := range single {
		single[i] = tabular.FromRows([][]float64{test.All().Row(i, nil)})
	}
	block := []tabular.View{test.All()}
	for _, c := range []struct {
		name  string
		model Classifier
		xs    []tabular.View
	}{
		{"rf/rows=1", rf, single},
		{"rf/rows=256", rf, block},
		{"gbt/rows=256", gbt, block},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.model.PredictProba(c.xs[i%len(c.xs)])
			}
		})
	}
}

// BenchmarkRowwisePredict measures the row-wise predict loop that the
// naive Bayes, linear and MLP models share, on one row (a closed-loop
// serving batch) and on one full kernel block. It is not one of
// scripts/bench.sh's inputs: run it with -bench BenchmarkRowwisePredict.
func BenchmarkRowwisePredict(b *testing.B) {
	train := benchDataset(600, 16, 3, 2)
	test := benchDataset(kernelBlock, 16, 3, 5)
	one := tabular.FromRows([][]float64{test.All().Row(0, nil)})
	for _, m := range []struct {
		name  string
		model Classifier
	}{
		{"gnb", NewGaussianNB()},
		{"logreg", NewLogisticRegression(LinearParams{Epochs: 10})},
		{"mlp", NewMLP(MLPParams{Hidden: []int{32}, Epochs: 5})},
	} {
		if _, err := m.model.Fit(train.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
		for _, x := range []tabular.View{one, test.All()} {
			b.Run(fmt.Sprintf("%s/rows=%d", m.name, x.Rows()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.model.PredictProba(x)
				}
			})
		}
	}
}
