package ml

import (
	"math/rand/v2"
	"testing"
)

// This file benchmarks the kernel families that previously had no
// recorded baseline — kNN, MLP and the SGD linear models — plus the
// within-fit parallel paths. Together with tree_bench_test.go they are
// the inputs of scripts/bench.sh, which folds min-of-N runs into
// BENCH_4.json and gates kernel PRs on regressions.

// BenchmarkKNNFit measures kNN training (column memorization) — cheap by
// design, recorded so a regression into copying or row-major gathering
// shows up.
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

// BenchmarkAdaBoostFit measures the boosting-round workload: weighted
// resampling, stump fits, and the full-data prediction scan per round.
func BenchmarkAdaBoostFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAdaBoost(AdaBoostParams{Rounds: 10})
		if _, err := a.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}
