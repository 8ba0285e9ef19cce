package ml

// This file keeps the row-at-a-time MLP kernels as a test oracle: one
// output per pass over the input in forward, one weight row per pass in
// backward. They are the kernels the four-output blocking replaced,
// verbatim except that each product is rounded explicitly
// (float64(x*y)), which moves no bit on amd64 and keeps the oracle from
// fusing on hosts that would. The blocked kernels must train the same
// weights bit for bit: the virtual clock charges the MLP by its FLOPs,
// but every AutoML score and prediction downstream reads its weights.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// referenceFit is MLP.Fit around the reference kernels. It returns the
// trained layers, the Cost, and how many weight rows backward skipped
// because their delta was exactly zero.
func referenceFit(p MLPParams, ds tabular.View, rng *rand.Rand) (layers []mlpLayer, cost Cost, skipped int) {
	p = p.normalized()
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	labels := ds.LabelsInto(nil)

	sizes := append([]int{d}, p.Hidden...)
	sizes = append(sizes, k)
	layers = make([]mlpLayer, len(sizes)-1)
	var weightCount float64
	for l := range layers {
		in, out := sizes[l], sizes[l+1]
		layer := mlpLayer{
			w:    make([][]float64, out),
			b:    make([]float64, out),
			last: l == len(layers)-1,
		}
		scale := math.Sqrt(2 / float64(in))
		for o := range layer.w {
			layer.w[o] = make([]float64, in)
			for i := range layer.w[o] {
				layer.w[o][i] = scale * rng.NormFloat64()
			}
		}
		layers[l] = layer
		weightCount += float64(in * out)
	}

	m := &MLP{layers: layers}
	acts, deltas := m.layerBuffers(d), m.layerBuffers(d)
	perm := make([]int, n)

	for epoch := 0; epoch < p.Epochs; epoch++ {
		eta := p.LearningRate / (1 + float64(0.05*float64(epoch)))
		permInto(rng, perm)
		for _, i := range perm {
			ds.Row(i, acts[0])
			referenceForward(layers, acts)
			for c := 0; c < k; c++ {
				target := 0.0
				if labels[i] == c {
					target = 1.0
				}
				deltas[len(deltas)-1][c] = acts[len(acts)-1][c] - target
			}
			skipped += referenceBackward(layers, acts, deltas, eta, p.L2)
		}
	}
	flops := float64(p.Epochs) * float64(n) * weightCount * 6
	return layers, Cost{Matrix: flops}, skipped
}

func referenceForward(layers []mlpLayer, acts [][]float64) {
	for l, layer := range layers {
		in, out := acts[l], acts[l+1]
		for o, w := range layer.w {
			var sum float64
			for j, v := range in {
				sum += float64(w[j] * v)
			}
			sum += layer.b[o]
			if !layer.last && sum < 0 {
				sum = 0 // ReLU
			}
			out[o] = sum
		}
		if layer.last {
			softmaxInPlace(out)
		}
	}
}

func referenceBackward(layers []mlpLayer, acts, deltas [][]float64, eta, l2 float64) (skipped int) {
	for l := len(layers) - 1; l >= 0; l-- {
		layer := layers[l]
		in := acts[l]
		delta := deltas[l+1]
		prev := deltas[l]
		for j := range prev {
			prev[j] = 0
		}
		for o, w := range layer.w {
			g := delta[o]
			if g == 0 {
				skipped++
				continue
			}
			for j, v := range in {
				prev[j] += float64(w[j] * g)
				w[j] -= float64(eta * (float64(g*v) + float64(l2*w[j])))
			}
			layer.b[o] -= float64(eta * g)
		}
		// ReLU derivative for the layer below (skip input layer).
		if l > 0 {
			for j, a := range acts[l] {
				if a <= 0 {
					prev[j] = 0
				}
			}
		}
	}
	return skipped
}

// mlpReferenceData is an n×d dataset with standard-normal features and
// class-shifted means, so hidden units sit on both sides of ReLU's kink.
func mlpReferenceData(n, d, classes int, seed uint64) *tabular.Frame {
	r := rand.New(rand.NewPCG(seed, 0x3c))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % classes
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = r.NormFloat64() + 0.5*float64(y[i]-j%classes)
		}
	}
	return labeled("mlpref", x, y, classes)
}

// TestMLPMatchesReference trains the blocked MLP and the reference on
// the same data and RNG stream and requires every weight and bias, the
// Cost, the predicted probabilities and the RNG state to match bit for
// bit. The hidden widths cover every remainder of the four-wide
// blocking and a two-layer net; L2 > 0 is what exposes a skipped row
// that is decayed anyway. Every case must skip some rows (dead ReLU
// units), or the g == 0 path would go untested.
func TestMLPMatchesReference(t *testing.T) {
	hiddens := [][]int{{1}, {3}, {4}, {5}, {33}, {8, 5}}
	for _, hidden := range hiddens {
		for _, classes := range []int{2, 5} {
			for _, l2 := range []float64{0, 1e-3} {
				t.Run(fmt.Sprintf("hidden=%v/classes=%d/l2=%g", hidden, classes, l2), func(t *testing.T) {
					checkMLPMatchesReference(t, MLPParams{Hidden: hidden, Epochs: 6, L2: l2}, classes)
				})
			}
		}
	}
}

func checkMLPMatchesReference(t *testing.T, p MLPParams, classes int) {
	t.Helper()
	ds := mlpReferenceData(70, 7, classes, uint64(classes)*17+uint64(len(p.Hidden)))
	pcgNew, pcgRef := rand.NewPCG(5, uint64(p.Hidden[0])), rand.NewPCG(5, uint64(p.Hidden[0]))

	m := NewMLP(p)
	cost, err := m.Fit(ds.All(), rand.New(pcgNew))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	layers, refCost, skipped := referenceFit(p, ds.All(), rand.New(pcgRef))
	if skipped == 0 {
		t.Fatalf("no weight row had a zero delta; the g == 0 path went unexercised")
	}

	if cost != refCost {
		t.Fatalf("cost diverged: %+v, reference %+v", cost, refCost)
	}
	a, _ := pcgNew.MarshalBinary()
	b, _ := pcgRef.MarshalBinary()
	if string(a) != string(b) {
		t.Fatalf("RNG state diverged after fit")
	}
	if len(m.layers) != len(layers) {
		t.Fatalf("%d layers, reference %d", len(m.layers), len(layers))
	}
	for l := range layers {
		for o := range layers[l].w {
			sameBits(t, fmt.Sprintf("layer %d row %d weights", l, o), m.layers[l].w[o], layers[l].w[o])
		}
		sameBits(t, fmt.Sprintf("layer %d biases", l), m.layers[l].b, layers[l].b)
	}

	proba, _ := m.PredictProba(ds.All())
	ref := &MLP{layers: layers}
	acts := ref.layerBuffers(ds.Features())
	for i, row := range proba {
		ds.All().Row(i, acts[0])
		referenceForward(layers, acts)
		sameBits(t, fmt.Sprintf("row %d proba", i), row, acts[len(acts)-1])
	}
}
