// Package metrics implements the evaluation measures of the study.
//
// The paper reports balanced accuracy — "that can handle multi-class and
// unbalanced classification problems" (§3.1) — as the predictive metric,
// and summarizes repeated runs "by repeatedly sampling one result out of 10
// runs with replacement" to capture AutoML non-determinism. This package
// provides those plus the standard classification metrics the AutoML
// systems use internally (log loss for probabilistic search, accuracy,
// macro F1, confusion matrices).
package metrics

import (
	"math"
	"math/rand/v2"
)

// ConfusionMatrix counts predictions: cell [t][p] is the number of
// instances of true class t predicted as class p.
type ConfusionMatrix [][]int

// NewConfusionMatrix builds a confusion matrix over `classes` classes.
// Labels outside [0, classes) are ignored.
func NewConfusionMatrix(yTrue, yPred []int, classes int) ConfusionMatrix {
	m := make(ConfusionMatrix, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	for i := range yTrue {
		t, p := yTrue[i], yPred[i]
		if t >= 0 && t < classes && p >= 0 && p < classes {
			m[t][p]++
		}
	}
	return m
}

// stackClasses is the class count up to which BalancedAccuracy keeps its
// counters on the stack; wider label spaces allocate them.
const stackClasses = 64

// BalancedAccuracy is the mean per-class recall, the paper's headline
// metric. Classes absent from yTrue are excluded from the mean. It returns
// 0 when no class is present.
//
// It equals NewConfusionMatrix(yTrue, yPred, classes).BalancedAccuracy()
// bit for bit — the same pairs are counted (both labels in range), and
// the same integer ratios are summed in class order and divided by the
// same count — but it keeps only each class's total and hits, so every
// validation score and Caruana round skips building a classes×classes
// matrix, and up to stackClasses classes it allocates nothing.
func BalancedAccuracy(yTrue, yPred []int, classes int) float64 {
	var stack [2 * stackClasses]int
	counts := stack[:]
	if classes > stackClasses {
		counts = make([]int, 2*classes)
	}
	total, correct := counts[:classes], counts[classes:2*classes]
	for i, t := range yTrue {
		p := yPred[i]
		if t >= 0 && t < classes && p >= 0 && p < classes {
			total[t]++
			if t == p {
				correct[t]++
			}
		}
	}
	var sum float64
	present := 0
	for t, n := range total {
		if n == 0 {
			continue
		}
		present++
		sum += float64(correct[t]) / float64(n)
	}
	if present == 0 {
		return 0
	}
	return sum / float64(present)
}

// BalancedAccuracy computes the mean per-class recall from the matrix.
func (m ConfusionMatrix) BalancedAccuracy() float64 {
	var sum float64
	present := 0
	for t, row := range m {
		total := 0
		for _, c := range row {
			total += c
		}
		if total == 0 {
			continue
		}
		present++
		sum += float64(row[t]) / float64(total)
	}
	if present == 0 {
		return 0
	}
	return sum / float64(present)
}

// Accuracy is the plain fraction of correct predictions.
func Accuracy(yTrue, yPred []int) float64 {
	if len(yTrue) == 0 {
		return 0
	}
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

// MacroF1 is the unweighted mean of per-class F1 scores over classes
// present in yTrue.
func MacroF1(yTrue, yPred []int, classes int) float64 {
	cm := NewConfusionMatrix(yTrue, yPred, classes)
	var sum float64
	present := 0
	for c := 0; c < classes; c++ {
		tp := cm[c][c]
		fn, fp := 0, 0
		for o := 0; o < classes; o++ {
			if o == c {
				continue
			}
			fn += cm[c][o]
			fp += cm[o][c]
		}
		if tp+fn == 0 {
			continue // class absent from yTrue
		}
		present++
		if tp == 0 {
			continue
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(tp+fn)
		sum += 2 * precision * recall / (precision + recall)
	}
	if present == 0 {
		return 0
	}
	return sum / float64(present)
}

// LogLoss is the mean negative log-likelihood of the true classes under the
// predicted probability rows. Probabilities are clipped to [eps, 1-eps].
func LogLoss(yTrue []int, proba [][]float64) float64 {
	const eps = 1e-15
	if len(yTrue) == 0 {
		return 0
	}
	var sum float64
	for i, y := range yTrue {
		p := eps
		if y >= 0 && y < len(proba[i]) {
			p = proba[i][y]
		}
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		sum -= math.Log(p)
	}
	return sum / float64(len(yTrue))
}

// ArgmaxRows converts probability rows to hard labels.
func ArgmaxRows(proba [][]float64) []int {
	labels := make([]int, len(proba))
	for i, row := range proba {
		labels[i] = Argmax(row)
	}
	return labels
}

// Argmax returns the index of the largest value, preferring the lowest
// index on ties. It returns -1 for an empty slice.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Summary is a mean ± standard deviation pair.
type Summary struct {
	Mean float64
	Std  float64
}

// MeanStd computes the sample mean and (population) standard deviation.
func MeanStd(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var varsum float64
	for _, v := range values {
		d := v - mean
		varsum += d * d
	}
	return Summary{Mean: mean, Std: math.Sqrt(varsum / float64(len(values)))}
}

// Bootstrap reproduces the paper's uncertainty estimate (§3.1): it
// repeatedly resamples one run result per dataset with replacement,
// averages across datasets, and reports the mean and standard deviation of
// those averages. perDataset[d] holds the repeated-run results of dataset d.
func Bootstrap(perDataset [][]float64, rounds int, rng *rand.Rand) Summary {
	if rounds <= 0 {
		rounds = 1000
	}
	valid := perDataset[:0:0]
	for _, runs := range perDataset {
		if len(runs) > 0 {
			valid = append(valid, runs)
		}
	}
	if len(valid) == 0 {
		return Summary{}
	}
	averages := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		var sum float64
		for _, runs := range valid {
			sum += runs[rng.IntN(len(runs))]
		}
		averages[r] = sum / float64(len(valid))
	}
	return MeanStd(averages)
}
