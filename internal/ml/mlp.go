package ml

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// MLPParams configure the multi-layer perceptron.
type MLPParams struct {
	// Hidden lists the hidden-layer widths; empty defaults to one layer
	// of 32 units.
	Hidden []int
	// Epochs is the number of SGD passes.
	Epochs int
	// LearningRate is the step size.
	LearningRate float64
	// Batch is the minibatch size.
	Batch int
	// L2 is weight decay.
	L2 float64
}

func (p MLPParams) normalized() MLPParams {
	if len(p.Hidden) == 0 {
		p.Hidden = []int{32}
	}
	if p.Epochs < 1 {
		p.Epochs = 30
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.05
	}
	if p.Batch < 1 {
		p.Batch = 32
	}
	if p.L2 < 0 {
		p.L2 = 0
	}
	return p
}

// mlpLayer is one dense layer: out = relu(W x + b) (softmax on the last).
type mlpLayer struct {
	w    [][]float64 // [out][in]
	b    []float64
	last bool
}

// MLP is a feed-forward neural network classifier with ReLU hidden layers
// and a softmax output, trained by minibatch SGD. Its compute is dense
// matrix work (hw.KindMatrix) and so benefits from vectorization and GPU
// offload, unlike the tree models.
type MLP struct {
	Params  MLPParams
	layers  []mlpLayer
	classes int
}

// NewMLP constructs an MLP classifier.
func NewMLP(p MLPParams) *MLP { return &MLP{Params: p} }

// Fit implements Classifier. SGD visits rows in a random order every
// epoch, gathering each visited row straight from the view's columns
// into the input activation buffer.
func (m *MLP) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	p := m.Params.normalized()
	m.Params = p
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	m.classes = k
	labels := ds.LabelsInto(nil)

	sizes := append([]int{d}, p.Hidden...)
	sizes = append(sizes, k)
	m.layers = make([]mlpLayer, len(sizes)-1)
	var weightCount float64
	for l := range m.layers {
		in, out := sizes[l], sizes[l+1]
		layer := mlpLayer{
			w:    make([][]float64, out), //greenlint:allow rowmajor layer weight matrix - model parameters
			b:    make([]float64, out),
			last: l == len(m.layers)-1,
		}
		scale := math.Sqrt(2 / float64(in))
		for o := range layer.w {
			layer.w[o] = make([]float64, in)
			for i := range layer.w[o] {
				layer.w[o][i] = scale * rng.NormFloat64()
			}
		}
		m.layers[l] = layer
		weightCount += float64(in * out)
	}

	acts, deltas := m.layerBuffers(d), m.layerBuffers(d)
	perm := make([]int, n)

	for epoch := 0; epoch < p.Epochs; epoch++ {
		eta := p.LearningRate / (1 + 0.05*float64(epoch))
		permInto(rng, perm)
		for _, i := range perm {
			ds.Row(i, acts[0])
			m.forward(acts)
			// Output delta: softmax cross-entropy gradient.
			for c := 0; c < k; c++ {
				target := 0.0
				if labels[i] == c {
					target = 1.0
				}
				deltas[len(deltas)-1][c] = acts[len(acts)-1][c] - target
			}
			m.backward(acts, deltas, eta, p.L2)
		}
	}
	flops := float64(p.Epochs) * float64(n) * weightCount * 6 // fwd + bwd + update
	return Cost{Matrix: flops}, nil
}

// layerBuffers returns one buffer per layer boundary, carved from one
// slab: d wide for the input, then each layer's output width.
func (m *MLP) layerBuffers(d int) [][]float64 {
	total := d
	for _, layer := range m.layers {
		total += len(layer.w)
	}
	slab := make([]float64, total)
	bufs := make([][]float64, len(m.layers)+1) //greenlint:allow rowmajor per-layer activation scratch, layer-wide
	bufs[0], slab = slab[:d:d], slab[d:]
	for l, layer := range m.layers {
		w := len(layer.w)
		bufs[l+1], slab = slab[:w:w], slab[w:]
	}
	return bufs
}

// forward propagates acts[0] through every layer, writing each layer's
// output into the next buffer of acts.
func (m *MLP) forward(acts [][]float64) {
	for l, layer := range m.layers {
		in, out := acts[l], acts[l+1]
		for o, w := range layer.w {
			var sum float64
			for j, v := range in {
				sum += w[j] * v
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

func (m *MLP) backward(acts, deltas [][]float64, eta, l2 float64) {
	for l := len(m.layers) - 1; l >= 0; l-- {
		layer := m.layers[l]
		in := acts[l]
		delta := deltas[l+1]
		prev := deltas[l]
		for j := range prev {
			prev[j] = 0
		}
		for o, w := range layer.w {
			g := delta[o]
			if g == 0 {
				continue
			}
			for j, v := range in {
				prev[j] += w[j] * g
				w[j] -= eta * (g*v + l2*w[j])
			}
			layer.b[o] -= eta * g
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
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(x tabular.View) ([][]float64, Cost) {
	n := x.Rows()
	if len(m.layers) == 0 {
		return uniformProba(n, max(m.classes, 2)), Cost{}
	}
	var weightCount float64
	for _, layer := range m.layers {
		for _, w := range layer.w {
			weightCount += float64(len(w))
		}
	}
	// The gathered row is the input activation and the output row the
	// last, so forward reads the view and writes the slab in place.
	acts := m.layerBuffers(0)
	out := predictRows(x, m.classes, func(row, proba []float64) {
		acts[0], acts[len(acts)-1] = row, proba
		m.forward(acts)
	})
	return out, Cost{Matrix: float64(n) * weightCount * 2}
}

// Clone implements Classifier.
func (m *MLP) Clone() Classifier {
	p := m.Params
	p.Hidden = append([]int(nil), m.Params.Hidden...)
	return NewMLP(p)
}

// Name implements Classifier.
func (m *MLP) Name() string {
	p := m.Params.normalized()
	return fmt.Sprintf("mlp(hidden=%v,epochs=%d)", p.Hidden, p.Epochs)
}

// ParallelFrac implements Classifier: minibatch math parallelizes
// moderately.
func (m *MLP) ParallelFrac() float64 { return 0.6 }
