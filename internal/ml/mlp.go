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
		eta := p.LearningRate / (1 + float64(0.05*float64(epoch)))
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
// output into the next buffer of acts. Outputs go four per pass over
// the input, each with its own accumulator: the four dependency chains
// overlap, and each sum still adds its products in input order, so
// every output keeps its bits. Each multiply-add rounds its product
// (float64(x*y) + z), so no compiler fuses it on any architecture.
//
//greenlint:hotpath per-sample SGD forward pass and per-row predict; writes only the caller's buffers
func (m *MLP) forward(acts [][]float64) {
	for l, layer := range m.layers {
		in, out := acts[l], acts[l+1]
		w := layer.w
		o := 0
		for ; o+4 <= len(w); o += 4 {
			w0, w1, w2, w3 := w[o][:len(in)], w[o+1][:len(in)], w[o+2][:len(in)], w[o+3][:len(in)]
			var s0, s1, s2, s3 float64
			for j, v := range in {
				s0 += float64(w0[j] * v)
				s1 += float64(w1[j] * v)
				s2 += float64(w2[j] * v)
				s3 += float64(w3[j] * v)
			}
			out[o] = layer.activate(o, s0)
			out[o+1] = layer.activate(o+1, s1)
			out[o+2] = layer.activate(o+2, s2)
			out[o+3] = layer.activate(o+3, s3)
		}
		for ; o < len(w); o++ {
			wo := w[o][:len(in)]
			var sum float64
			for j, v := range in {
				sum += float64(wo[j] * v)
			}
			out[o] = layer.activate(o, sum)
		}
		if layer.last {
			softmaxInPlace(out)
		}
	}
}

// activate adds output o's bias to its weighted sum and applies ReLU
// on a hidden layer; the last layer's softmax runs over the whole row.
func (layer *mlpLayer) activate(o int, sum float64) float64 {
	sum += layer.b[o]
	if !layer.last && sum < 0 {
		sum = 0 // ReLU
	}
	return sum
}

// backward propagates the output delta down the layers and takes one
// SGD step on every weight row whose delta g is nonzero. A row with
// g == 0 is skipped entirely: no gradient, and no L2 decay either. The
// live rows go four at a time, so each pass over the input loads and
// stores prev[j] once for four rows and adds their terms in ascending
// row order, the order a row-by-row loop adds them in.
//
//greenlint:hotpath per-sample SGD backward pass; updates the weights in place
func (m *MLP) backward(acts, deltas [][]float64, eta, l2 float64) {
	for l := len(m.layers) - 1; l >= 0; l-- {
		layer := m.layers[l]
		in := acts[l]
		delta := deltas[l+1]
		prev := deltas[l]
		clear(prev)
		var live [4]int
		n := 0
		for o, g := range delta {
			if g == 0 {
				continue
			}
			live[n] = o
			n++
			if n == len(live) {
				layer.step4(in, prev, delta, live, eta, l2)
				n = 0
			}
		}
		for _, o := range live[:n] {
			layer.step1(in, prev, o, delta[o], eta, l2)
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

// step4 backpropagates rows o[0] < o[1] < o[2] < o[3] into prev and
// takes their SGD steps. Each weight is read once: its old value feeds
// both prev and its own update.
func (layer *mlpLayer) step4(in, prev, delta []float64, o [4]int, eta, l2 float64) {
	prev = prev[:len(in)]
	w0, w1, w2, w3 := layer.w[o[0]][:len(in)], layer.w[o[1]][:len(in)], layer.w[o[2]][:len(in)], layer.w[o[3]][:len(in)]
	g0, g1, g2, g3 := delta[o[0]], delta[o[1]], delta[o[2]], delta[o[3]]
	for j, v := range in {
		a0, a1, a2, a3 := w0[j], w1[j], w2[j], w3[j]
		prev[j] = prev[j] + float64(a0*g0) + float64(a1*g1) + float64(a2*g2) + float64(a3*g3)
		w0[j] = a0 - float64(eta*(float64(g0*v)+float64(l2*a0)))
		w1[j] = a1 - float64(eta*(float64(g1*v)+float64(l2*a1)))
		w2[j] = a2 - float64(eta*(float64(g2*v)+float64(l2*a2)))
		w3[j] = a3 - float64(eta*(float64(g3*v)+float64(l2*a3)))
	}
	layer.b[o[0]] -= float64(eta * g0)
	layer.b[o[1]] -= float64(eta * g1)
	layer.b[o[2]] -= float64(eta * g2)
	layer.b[o[3]] -= float64(eta * g3)
}

// step1 is step4 for one row.
func (layer *mlpLayer) step1(in, prev []float64, o int, g, eta, l2 float64) {
	prev = prev[:len(in)]
	w := layer.w[o][:len(in)]
	for j, v := range in {
		a := w[j]
		prev[j] += float64(a * g)
		w[j] = a - float64(eta*(float64(g*v)+float64(l2*a)))
	}
	layer.b[o] -= float64(eta * g)
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
	// The rounded product keeps arm64 from rewriting x*2 as x+x and
	// fusing one product into it.
	return out, Cost{Matrix: float64(float64(n)*weightCount) * 2}
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
