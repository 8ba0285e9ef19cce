// Package pipeline composes preprocessors and models into ML pipelines and
// describes the hyperparameter configuration spaces AutoML systems search.
//
// It is the reproduction's equivalent of scikit-learn's Pipeline plus a
// small ConfigSpace: a Space is an ordered list of typed parameters
// (float, int, bool, choice), a Config assigns each a value, and a
// SpaceSpec declares which model families and preprocessor groups a given
// AutoML system exposes (paper Table 1: ASKL searches data/feature
// preprocessors and models, CAML omits feature preprocessors, FLAML
// searches models only).
package pipeline

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"sort"
)

// ParamKind is the type of a hyperparameter.
type ParamKind int

const (
	// Float is a continuous parameter in [Min, Max].
	Float ParamKind = iota
	// Int is an integer parameter in [Min, Max].
	Int
	// Bool is a binary flag.
	Bool
	// Choice is a categorical parameter over Choices.
	Choice
)

// Param describes one hyperparameter.
type Param struct {
	// Name is the unique, dot-prefixed parameter name (e.g. "rf.trees").
	Name string
	// Kind is the parameter type.
	Kind ParamKind
	// Min and Max bound Float and Int parameters.
	Min, Max float64
	// Log samples Float/Int parameters log-uniformly.
	Log bool
	// Choices lists the options of a Choice parameter.
	Choices []string
	// Default is the value used when a config does not set the
	// parameter.
	Default float64
}

// Space is an ordered set of parameters.
type Space struct {
	Params []Param
	index  map[string]int
}

// NewSpace builds a space from parameters, indexing them by name.
func NewSpace(params ...Param) *Space {
	s := &Space{Params: params, index: make(map[string]int, len(params))}
	for i, p := range params {
		s.index[p.Name] = i
	}
	return s
}

// Lookup returns the parameter with the given name.
func (s *Space) Lookup(name string) (Param, bool) {
	i, ok := s.index[name]
	if !ok {
		return Param{}, false
	}
	return s.Params[i], true
}

// Config assigns a raw float value to each parameter name. Ints are stored
// rounded, bools as 0/1, choices as the option index.
type Config map[string]float64

// Clone copies the config.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Float reads a float parameter, falling back to def when unset.
func (c Config) Float(name string, def float64) float64 {
	if v, ok := c[name]; ok {
		return v
	}
	return def
}

// Int reads an integer parameter.
func (c Config) Int(name string, def int) int {
	if v, ok := c[name]; ok {
		return int(math.Round(v))
	}
	return def
}

// Bool reads a boolean parameter.
func (c Config) Bool(name string, def bool) bool {
	if v, ok := c[name]; ok {
		return v >= 0.5
	}
	return def
}

// Choice reads a categorical parameter and returns the selected option,
// clamping out-of-range indices.
func (c Config) Choice(name string, choices []string, def string) string {
	v, ok := c[name]
	if !ok || len(choices) == 0 {
		return def
	}
	i := int(math.Round(v))
	if i < 0 {
		i = 0
	}
	if i >= len(choices) {
		i = len(choices) - 1
	}
	return choices[i]
}

// Key renders the config as a canonical string for deduplication.
func (c Config) Key() string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		out += fmt.Sprintf("%s=%.6g;", k, c[k])
	}
	return out
}

// Sample draws a uniform random configuration from the space: the map
// form of SampleInto.
func (s *Space) Sample(rng *rand.Rand) Config {
	vals := make([]float64, len(s.Params))
	s.SampleInto(vals, rng)
	cfg := make(Config, len(s.Params))
	for j, p := range s.Params {
		cfg[p.Name] = vals[j]
	}
	return cfg
}

// SampleInto draws a uniform random configuration into vals, one raw
// value per parameter in space order. It is the one place the sampling
// draws are made, so Sample and a caller that keeps configurations as
// raw rows consume the RNG identically.
func (s *Space) SampleInto(vals []float64, rng *rand.Rand) {
	for j, p := range s.Params {
		vals[j] = sampleParam(p, rng)
	}
}

func sampleParam(p Param, rng *rand.Rand) float64 {
	switch p.Kind {
	case Float:
		return sampleRange(p, rng)
	case Int:
		return math.Round(sampleRange(p, rng))
	case Bool:
		return float64(rng.IntN(2))
	case Choice:
		if len(p.Choices) == 0 {
			return 0
		}
		return float64(rng.IntN(len(p.Choices)))
	default:
		return p.Default
	}
}

func sampleRange(p Param, rng *rand.Rand) float64 {
	if p.Max <= p.Min {
		return p.Min
	}
	if p.Log && p.Min > 0 {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		return math.Exp(lo + rng.Float64()*(hi-lo))
	}
	return p.Min + rng.Float64()*(p.Max-p.Min)
}

// Default returns the configuration of all default values.
func (s *Space) Default() Config {
	cfg := make(Config, len(s.Params))
	for _, p := range s.Params {
		cfg[p.Name] = p.Default
	}
	return cfg
}

// Preset returns the default configuration with the model choice set to
// family's index (0 when the space does not offer it) and overrides
// applied on top: a curated configuration, as portfolios and fixed
// candidate lists write them.
func (s *Space) Preset(family string, overrides Config) Config {
	cfg := s.Default()
	cfg["model"] = 0
	if p, ok := s.Lookup("model"); ok {
		for i, choice := range p.Choices {
			if choice == family {
				cfg["model"] = float64(i)
				break
			}
		}
	}
	for k, v := range overrides {
		cfg[k] = v
	}
	return cfg
}

// Vector encodes a config as a fixed-length normalized feature vector for
// surrogate models, one Encode per parameter; a parameter the config
// does not set encodes its Default.
func (s *Space) Vector(cfg Config) []float64 {
	vec := make([]float64, len(s.Params))
	for i, p := range s.Params {
		vec[i] = p.Encode(cfg.Float(p.Name, p.Default))
	}
	return vec
}

// Encode maps a raw value of p to the surrogate's feature scale:
// floats/ints to [0,1] (log-scaled where declared), bools to {0,1},
// choices to their normalized index.
func (p Param) Encode(v float64) float64 {
	switch p.Kind {
	case Float, Int:
		if p.Max <= p.Min {
			return 0
		}
		if p.Log && p.Min > 0 {
			return (math.Log(clampF(v, p.Min, p.Max)) - math.Log(p.Min)) / (math.Log(p.Max) - math.Log(p.Min))
		}
		return (clampF(v, p.Min, p.Max) - p.Min) / (p.Max - p.Min)
	case Bool:
		if v >= 0.5 {
			return 1
		}
	case Choice:
		if len(p.Choices) > 1 {
			return clampF(v, 0, float64(len(p.Choices)-1)) / float64(len(p.Choices)-1)
		}
	}
	return 0
}

// Values reads cfg into raw form: vals[j] and set[j] are the value of
// parameter j and whether cfg sets it. An unset parameter reads 0, as a
// map lookup does.
func (s *Space) Values(cfg Config, vals []float64, set []bool) {
	for j, p := range s.Params {
		vals[j], set[j] = cfg[p.Name]
	}
}

// WithValues returns a copy of base (nil for an empty one) in which every
// parameter j that set marks holds vals[j]: the map form of a raw
// configuration. Keys of base outside the space are kept.
func (s *Space) WithValues(base Config, vals []float64, set []bool) Config {
	out := make(Config, max(len(base), len(s.Params)))
	maps.Copy(out, base)
	for j, p := range s.Params {
		if set[j] {
			out[p.Name] = vals[j]
		}
	}
	return out
}

// Mutate returns a copy of cfg with roughly `strength` fraction of
// parameters resampled locally (Gaussian perturbation for numeric, uniform
// redraw for categorical): the map form of MutateInto. At least one
// parameter always changes.
func (s *Space) Mutate(cfg Config, strength float64, rng *rand.Rand) Config {
	vals := make([]float64, len(s.Params))
	set := make([]bool, len(s.Params))
	s.Values(cfg, vals, set)
	s.MutateInto(vals, set, strength, rng)
	return s.WithValues(cfg, vals, set)
}

// MutateInto mutates the raw configuration (vals, set), as Values reads
// it, in place. It is the one place the mutation draws are made. Every
// parameter the mutation draws is marked set, even when its value does
// not change; a redraw of the guaranteed change is marked only when it
// differs.
func (s *Space) MutateInto(vals []float64, set []bool, strength float64, rng *rand.Rand) {
	changed := false
	for j, p := range s.Params {
		if rng.Float64() > strength {
			continue
		}
		v := perturbParam(p, vals[j], rng)
		if v != vals[j] {
			changed = true
		}
		vals[j], set[j] = v, true
	}
	// Guarantee a real change: categorical/boolean perturbations can
	// re-draw the current value, so retry until one parameter differs.
	for attempts := 0; !changed && len(s.Params) > 0 && attempts < 32; attempts++ {
		j := rng.IntN(len(s.Params))
		v := perturbParam(s.Params[j], vals[j], rng)
		if v != vals[j] {
			vals[j], set[j] = v, true
			changed = true
		}
	}
}

func perturbParam(p Param, cur float64, rng *rand.Rand) float64 {
	switch p.Kind {
	case Float, Int:
		if p.Max <= p.Min {
			return p.Min
		}
		var v float64
		if p.Log && p.Min > 0 {
			span := math.Log(p.Max) - math.Log(p.Min)
			v = math.Exp(math.Log(clampF(cur, p.Min, p.Max)) + 0.2*span*rng.NormFloat64())
		} else {
			span := p.Max - p.Min
			v = cur + 0.2*span*rng.NormFloat64()
		}
		v = clampF(v, p.Min, p.Max)
		if p.Kind == Int {
			v = math.Round(v)
		}
		return v
	case Bool:
		return float64(rng.IntN(2))
	case Choice:
		if len(p.Choices) == 0 {
			return 0
		}
		return float64(rng.IntN(len(p.Choices)))
	default:
		return cur
	}
}

// Crossover combines two configs parameter-wise (uniform crossover), as
// used by the genetic-programming search.
func (s *Space) Crossover(a, b Config, rng *rand.Rand) Config {
	out := make(Config, len(s.Params))
	for _, p := range s.Params {
		src := a
		if rng.IntN(2) == 1 {
			src = b
		}
		if v, ok := src[p.Name]; ok {
			out[p.Name] = v
		} else {
			out[p.Name] = p.Default
		}
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
