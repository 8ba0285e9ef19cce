package automl

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// TabPFN reproduces the cost profile and behaviour of the prior-fitted
// network of Hollmann et al. (ICLR 2023): a transformer pretrained offline
// on synthetic datasets that classifies new data in-context, with zero
// search and zero training at execution time.
//
// Substitution note (see DESIGN.md): the original 25M-parameter
// transformer cannot be retrained here, so the PFN is realized as a
// multi-layer attention kernel with fixed "pretrained" projection weights
// (seeded deterministically — the offline pretraining is development-stage
// energy sunk before this study, exactly as in the paper). What the study
// measures is preserved structurally:
//
//   - execution is a constant model load (~0.29s, paper Table 7);
//   - inference forward-propagates the entire training set per query
//     through attention layers — dense matrix work that is orders of
//     magnitude more expensive per instance than tree traversal
//     (paper Fig. 3) and accelerates strongly on GPU (paper Table 3);
//   - only up to 10 classes are supported, and quality is calibrated for
//     small tasks (≤1k training rows — larger sets are subsampled).
//
// The virtual FLOP accounting scales the slim kernel's real operation
// count by pfnVirtualScale to represent the full-size transformer's
// arithmetic; the kernel's *predictions* are computed exactly as coded.
type TabPFN struct {
	// ProjDim is the attention embedding width (default 32).
	ProjDim int
	// Layers is the number of attention refinement layers (default 2).
	Layers int
	// MaxClasses is the supported class limit (default 10, as in the
	// released TabPFN).
	MaxClasses int
	// MaxTrainRows caps the in-context training set (default 512;
	// the released model was developed for ≤1k instances).
	MaxTrainRows int
}

// pfnVirtualScale converts the slim stand-in kernel's real FLOPs into the
// full 25M-parameter transformer's virtual FLOPs for energy accounting.
const pfnVirtualScale = 12

// pfnWeightSeed fixes the "pretrained" projection weights. Pretraining
// happened offline (development stage); every TabPFN instance shares it.
const pfnWeightSeed = 0x9f17

// NewTabPFN returns TabPFN with released-model defaults.
func NewTabPFN() *TabPFN {
	return &TabPFN{ProjDim: 32, Layers: 2, MaxClasses: 10, MaxTrainRows: 512}
}

// Name implements System.
func (t *TabPFN) Name() string { return "TabPFN" }

// MinBudget implements System: TabPFN has no search-time parameter at all.
func (t *TabPFN) MinBudget() time.Duration { return 0 }

func (t *TabPFN) normalized() TabPFN {
	out := *t
	if out.ProjDim <= 0 {
		out.ProjDim = 32
	}
	if out.Layers <= 0 {
		out.Layers = 2
	}
	if out.MaxClasses <= 0 {
		out.MaxClasses = 10
	}
	if out.MaxTrainRows <= 0 {
		out.MaxTrainRows = 512
	}
	return out
}

// Fit implements System. "Fitting" only loads the pretrained model and
// memorizes (a subsample of) the training data; the paper measures this at
// 0.29±0.01s regardless of the requested budget.
func (t *TabPFN) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("tabpfn: %w", err)
	}
	cfg := t.normalized()
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)

	// Model load: constant generic work (weight deserialization and
	// device placement — I/O-bound, so a GPU does not accelerate it;
	// its idle draw still bills, which is why the paper's Table 3 shows
	// TabPFN's execution *energy* above 1 at an execution *time* near 1).
	meter.Run(energy.Execution, hw.Work{FLOPs: 580e3, Kind: hw.KindGeneric, ParallelFrac: 0.5})

	if train.Classes() > cfg.MaxClasses {
		// The released implementation supports at most 10 classes; on
		// tasks beyond the limit it cannot produce useful predictions
		// (the paper notes TabPFN's low average score stems from
		// exactly these datasets).
		return tracker.finish(MajorityResult(t.Name(), train)), nil
	}

	context := train
	if context.Rows() > cfg.MaxTrainRows {
		context = context.Subsample(cfg.MaxTrainRows, rng)
	}
	pfn := newPFNPredictor(context, cfg)

	return tracker.finish(&Result{
		System:       t.Name(),
		Predictor:    pfn,
		Classes:      train.Classes(),
		Evaluated:    0, // no search
		ValScore:     0, // no internal validation — zero-shot
		GPUInference: true,
	}), nil
}

// pfnPredictor is the fitted in-context model.
type pfnPredictor struct {
	cfg        TabPFN
	classes    int
	mean       []float64
	std        []float64
	keys       [][]float64 // per training row, per layer-shared embedding
	labels     []int
	w          [][][]float64 // [layer][out][in] projection weights
	bandwidth  float64       // kernel bandwidth (median-distance heuristic)
	priorBoost []float64     // per-class balanced-prior correction
}

func newPFNPredictor(context tabular.View, cfg TabPFN) *pfnPredictor {
	d := context.Features()
	p := &pfnPredictor{cfg: cfg, classes: context.Classes(), labels: context.LabelsInto(nil)}

	// Internal standardization (the released TabPFN z-scores inputs),
	// accumulated column-wise over the view; each moment sums its rows in
	// ascending order, matching the row-major loop bit for bit.
	p.mean = make([]float64, d)
	p.std = make([]float64, d)
	n := float64(context.Rows())
	var colBuf []float64
	if !context.Contiguous() {
		colBuf = make([]float64, context.Rows())
	}
	for j := 0; j < d; j++ {
		col := context.ColInto(j, colBuf)
		var sum float64
		for _, v := range col {
			sum += v
		}
		p.mean[j] = sum / n
		var sq float64
		for _, v := range col {
			diff := v - p.mean[j]
			sq += diff * diff
		}
		p.std[j] = math.Sqrt(sq / n)
		if p.std[j] < 1e-9 {
			p.std[j] = 1
		}
	}

	// "Pretrained" projections: input -> ProjDim, then per-layer
	// ProjDim -> ProjDim refinements.
	wrng := rand.New(rand.NewPCG(pfnWeightSeed, uint64(d)))
	p.w = make([][][]float64, cfg.Layers+1)
	p.w[0] = randomMatrix(cfg.ProjDim, d, wrng)
	for l := 1; l <= cfg.Layers; l++ {
		p.w[l] = randomMatrix(cfg.ProjDim, cfg.ProjDim, wrng)
	}

	// Precompute training-row embeddings (the "keys").
	p.keys = make([][]float64, context.Rows())
	rowBuf := make([]float64, d)
	for i := range p.keys {
		row := context.Row(i, rowBuf)
		rowBuf = row
		p.keys[i] = p.embed(row)
	}

	// Kernel bandwidth: a sharpened median of sampled pairwise key
	// distances (the "pretrained" attention temperature).
	p.bandwidth = 0.35 * medianPairDistance(p.keys, wrng)
	if p.bandwidth < 1e-6 {
		p.bandwidth = 1
	}

	// Balanced-prior correction: down-weight majority-class readout mass
	// by the square root of the class prior.
	counts := context.ClassCounts()
	p.priorBoost = make([]float64, context.Classes())
	for c, cnt := range counts {
		prior := (float64(cnt) + 1) / (n + float64(context.Classes()))
		p.priorBoost[c] = 1 / math.Sqrt(prior)
	}
	return p
}

// medianPairDistance estimates the median Euclidean distance over up to
// 256 sampled key pairs.
func medianPairDistance(keys [][]float64, rng *rand.Rand) float64 {
	n := len(keys)
	if n < 2 {
		return 1
	}
	samples := 256
	dists := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b {
			continue
		}
		var sum float64
		for j := range keys[a] {
			diff := keys[a][j] - keys[b][j]
			sum += diff * diff
		}
		dists = append(dists, math.Sqrt(sum))
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	return dists[len(dists)/2]
}

func randomMatrix(rows, cols int, rng *rand.Rand) [][]float64 {
	m := make([][]float64, rows)
	scale := 1 / math.Sqrt(float64(cols))
	for r := range m {
		m[r] = make([]float64, cols)
		for c := range m[r] {
			m[r][c] = scale * rng.NormFloat64()
		}
	}
	return m
}

// embed standardizes a raw row and projects it to the attention space.
func (p *pfnPredictor) embed(row []float64) []float64 {
	std := make([]float64, len(p.mean))
	for j := range std {
		v := 0.0
		if j < len(row) {
			v = row[j]
		}
		std[j] = (v - p.mean[j]) / p.std[j]
	}
	if len(std) <= p.cfg.ProjDim {
		// Low-dimensional inputs skip the projection (it would only
		// blur distances); pad to the attention width.
		out := make([]float64, p.cfg.ProjDim)
		copy(out, std)
		return out
	}
	out := make([]float64, p.cfg.ProjDim)
	for o, w := range p.w[0] {
		var sum float64
		for j, v := range std {
			sum += w[j] * v
		}
		out[o] = sum
	}
	return out
}

// PredictProba implements ensemble.Predictor: for each query the entire
// training context is attended over in every layer — the structural reason
// TabPFN's per-instance inference energy dwarfs every search-based system.
func (p *pfnPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	nTrain := len(p.keys)
	dim := p.cfg.ProjDim
	m := x.Rows()
	out := make([][]float64, m)
	attn := make([]float64, nTrain)
	rowBuf := make([]float64, x.Features())
	twoBW := 2 * p.bandwidth * p.bandwidth
	for qi := 0; qi < m; qi++ {
		row := x.Row(qi, rowBuf)
		rowBuf = row
		q := p.embed(row)
		for l := 1; l <= p.cfg.Layers; l++ {
			// Distance-kernel attention against all training
			// embeddings (the pretrained metric).
			var maxScore float64 = math.Inf(-1)
			for i, k := range p.keys {
				var dist float64
				for j := range q {
					diff := q[j] - k[j]
					dist += diff * diff
				}
				attn[i] = -dist / twoBW
				if attn[i] > maxScore {
					maxScore = attn[i]
				}
			}
			var norm float64
			for i := range attn {
				attn[i] = math.Exp(attn[i] - maxScore)
				norm += attn[i]
			}
			if l == p.cfg.Layers {
				break // final attention feeds the readout directly
			}
			// Attended context vector, refined through the layer
			// projection with a small residual step that pulls the
			// query toward its neighbourhood.
			ctx := make([]float64, dim)
			for i, k := range p.keys {
				a := attn[i] / norm
				for j := range ctx {
					ctx[j] += a * k[j]
				}
			}
			for o, w := range p.w[l] {
				var sum float64
				for j, v := range ctx {
					sum += w[j] * v
				}
				q[o] = 0.8*q[o] + 0.2*ctx[o] + 0.05*math.Tanh(sum)
			}
		}
		// Class logits: label-weighted attention readout of the final
		// layer, corrected by the context's class prior (the pretrained
		// model was trained on balanced synthetic tasks, which acts as
		// an implicit balanced prior).
		proba := make([]float64, p.classes)
		var norm float64
		for i := range attn {
			norm += attn[i]
		}
		for i, a := range attn {
			proba[p.labels[i]] += a / norm
		}
		for c := range proba {
			proba[c] *= p.priorBoost[c]
		}
		smooth(proba)
		out[qi] = proba
	}
	realFLOPs := float64(m) * float64(p.cfg.Layers) * float64(nTrain) * float64(dim) * 6
	realFLOPs += float64(m) * float64(len(p.mean)) * float64(dim) * 2
	return out, ml.Cost{Matrix: realFLOPs * pfnVirtualScale}
}

// smooth adds a small floor so no class has exactly zero probability.
func smooth(proba []float64) {
	const eps = 1e-3
	var sum float64
	for i := range proba {
		proba[i] += eps
		sum += proba[i]
	}
	for i := range proba {
		proba[i] /= sum
	}
}
