// Package tabular provides the dataset representation shared by every ML
// and AutoML component in this repository.
//
// The paper's scope is supervised classification on tabular data with
// numeric and categorical attributes — "the most studied data modality by
// AutoML systems". The working representation is the columnar Frame (one
// contiguous []float64 per feature, plus per-feature kinds and integer
// class labels) subset through zero-copy Views; see frame.go. The package
// supplies the split and resampling machinery the AutoML systems need —
// stratified train/test splits, hold-out validation splits, k-fold
// cross-validation, stratified subsampling — all as index permutations
// over a shared Frame rather than matrix copies.
//
// ReadCSV parses straight into a Frame. FromRows is the one row-major
// adapter; no production path uses it. Bayesian optimization encodes its
// configurations straight into frame columns, and the serving engine
// gathers its request batches into a Frame of its own, reused from batch
// to batch.
package tabular

import "math/rand/v2"

// FeatureKind distinguishes numeric from categorical attributes.
type FeatureKind int

const (
	// Numeric features hold continuous values.
	Numeric FeatureKind = iota
	// Categorical features hold non-negative integer category codes
	// stored as float64.
	Categorical
)

// String implements fmt.Stringer.
func (k FeatureKind) String() string {
	if k == Categorical {
		return "categorical"
	}
	return "numeric"
}

func shuffleInts(s []int, rng *rand.Rand) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// MetaFeatures summarizes a dataset for meta-learning: warm starting
// (AutoSklearn 2) and representative-dataset clustering (paper §2.5 uses
// "metadata features, such as the number of features, instances, and
// classes").
type MetaFeatures struct {
	LogRows         float64
	LogFeatures     float64
	LogClasses      float64
	ClassEntropy    float64 // normalized to [0,1]
	MinorityFrac    float64 // size of smallest present class / rows
	CategoricalFrac float64
	MeanAbsSkew     float64 // mean |skewness| over numeric columns
}

// Vector returns the meta-features as a fixed-order float vector for
// clustering and nearest-neighbour lookup.
func (m MetaFeatures) Vector() []float64 {
	return []float64{
		m.LogRows, m.LogFeatures, m.LogClasses,
		m.ClassEntropy, m.MinorityFrac, m.CategoricalFrac, m.MeanAbsSkew,
	}
}
