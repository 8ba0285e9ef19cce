package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/preprocess"
)

// ModelDef registers one model family: its hyperparameters and a factory.
type ModelDef struct {
	// Name is the family identifier used in search spaces.
	Name string
	// Params lists the family's hyperparameters (prefixed "name.").
	Params []Param
	// Build constructs an untrained classifier from a config.
	Build func(cfg Config) ml.Classifier
	// CostRank orders families by typical training cost (1 = cheapest);
	// cost-frugal search (FLAML) starts from low ranks.
	CostRank int
}

// modelRegistry holds every model family available to search spaces.
var modelRegistry = map[string]ModelDef{
	"gaussian_nb": {
		Name:     "gaussian_nb",
		CostRank: 1,
		Build:    func(Config) ml.Classifier { return ml.NewGaussianNB() },
	},
	"bernoulli_nb": {
		Name:     "bernoulli_nb",
		CostRank: 1,
		Params: []Param{
			{Name: "bernoulli_nb.alpha", Kind: Float, Min: 0.01, Max: 10, Log: true, Default: 1},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewBernoulliNB(cfg.Float("bernoulli_nb.alpha", 1))
		},
	},
	"tree": {
		Name:     "tree",
		CostRank: 2,
		Params: []Param{
			{Name: "tree.max_depth", Kind: Int, Min: 1, Max: 24, Log: true, Default: 10},
			{Name: "tree.min_leaf", Kind: Int, Min: 1, Max: 20, Log: true, Default: 2},
			{Name: "tree.criterion", Kind: Choice, Choices: []string{"gini", "entropy"}, Default: 0},
		},
		Build: func(cfg Config) ml.Classifier {
			crit := ml.Gini
			if cfg.Choice("tree.criterion", []string{"gini", "entropy"}, "gini") == "entropy" {
				crit = ml.Entropy
			}
			return ml.NewTreeClassifier(ml.TreeParams{
				MaxDepth:       cfg.Int("tree.max_depth", 10),
				MinSamplesLeaf: cfg.Int("tree.min_leaf", 2),
				Criterion:      crit,
			})
		},
	},
	"knn": {
		Name:     "knn",
		CostRank: 2,
		Params: []Param{
			{Name: "knn.k", Kind: Int, Min: 1, Max: 25, Log: true, Default: 5},
			{Name: "knn.weighted", Kind: Bool, Default: 0},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewKNN(ml.KNNParams{
				K:                cfg.Int("knn.k", 5),
				DistanceWeighted: cfg.Bool("knn.weighted", false),
			})
		},
	},
	"logreg": {
		Name:     "logreg",
		CostRank: 3,
		Params: []Param{
			{Name: "logreg.epochs", Kind: Int, Min: 5, Max: 60, Log: true, Default: 20},
			{Name: "logreg.lr", Kind: Float, Min: 0.005, Max: 0.5, Log: true, Default: 0.1},
			{Name: "logreg.l2", Kind: Float, Min: 1e-6, Max: 0.1, Log: true, Default: 1e-4},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewLogisticRegression(ml.LinearParams{
				Epochs:       cfg.Int("logreg.epochs", 20),
				LearningRate: cfg.Float("logreg.lr", 0.1),
				L2:           cfg.Float("logreg.l2", 1e-4),
			})
		},
	},
	"svm": {
		Name:     "svm",
		CostRank: 3,
		Params: []Param{
			{Name: "svm.epochs", Kind: Int, Min: 5, Max: 60, Log: true, Default: 20},
			{Name: "svm.lr", Kind: Float, Min: 0.005, Max: 0.5, Log: true, Default: 0.1},
			{Name: "svm.l2", Kind: Float, Min: 1e-6, Max: 0.1, Log: true, Default: 1e-4},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewLinearSVM(ml.LinearParams{
				Epochs:       cfg.Int("svm.epochs", 20),
				LearningRate: cfg.Float("svm.lr", 0.1),
				L2:           cfg.Float("svm.l2", 1e-4),
			})
		},
	},
	"random_forest": {
		Name:     "random_forest",
		CostRank: 4,
		Params: []Param{
			{Name: "random_forest.trees", Kind: Int, Min: 5, Max: 150, Log: true, Default: 50},
			{Name: "random_forest.max_depth", Kind: Int, Min: 2, Max: 24, Log: true, Default: 16},
			{Name: "random_forest.max_features", Kind: Float, Min: 0.1, Max: 1, Default: 0.35},
			{Name: "random_forest.min_leaf", Kind: Int, Min: 1, Max: 20, Log: true, Default: 1},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewForestClassifier(ml.ForestParams{
				Trees:     cfg.Int("random_forest.trees", 50),
				Bootstrap: true,
				Tree: ml.TreeParams{
					MaxDepth:       cfg.Int("random_forest.max_depth", 16),
					MaxFeatures:    cfg.Float("random_forest.max_features", 0.35),
					MinSamplesLeaf: cfg.Int("random_forest.min_leaf", 1),
				},
			})
		},
	},
	"extra_trees": {
		Name:     "extra_trees",
		CostRank: 4,
		Params: []Param{
			{Name: "extra_trees.trees", Kind: Int, Min: 5, Max: 150, Log: true, Default: 50},
			{Name: "extra_trees.max_depth", Kind: Int, Min: 2, Max: 24, Log: true, Default: 16},
			{Name: "extra_trees.max_features", Kind: Float, Min: 0.1, Max: 1, Default: 0.35},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewForestClassifier(ml.ForestParams{
				Trees:      cfg.Int("extra_trees.trees", 50),
				ExtraTrees: true,
				Tree: ml.TreeParams{
					MaxDepth:    cfg.Int("extra_trees.max_depth", 16),
					MaxFeatures: cfg.Float("extra_trees.max_features", 0.35),
				},
			})
		},
	},
	"gradient_boosting": {
		Name:     "gradient_boosting",
		CostRank: 5,
		Params: []Param{
			{Name: "gradient_boosting.rounds", Kind: Int, Min: 10, Max: 120, Log: true, Default: 40},
			{Name: "gradient_boosting.lr", Kind: Float, Min: 0.01, Max: 0.4, Log: true, Default: 0.1},
			{Name: "gradient_boosting.max_depth", Kind: Int, Min: 1, Max: 6, Default: 3},
			{Name: "gradient_boosting.subsample", Kind: Float, Min: 0.4, Max: 1, Default: 1},
		},
		Build: func(cfg Config) ml.Classifier {
			return ml.NewBoostingClassifier(ml.BoostingParams{
				Rounds:       cfg.Int("gradient_boosting.rounds", 40),
				LearningRate: cfg.Float("gradient_boosting.lr", 0.1),
				Subsample:    cfg.Float("gradient_boosting.subsample", 1),
				Tree:         ml.TreeParams{MaxDepth: cfg.Int("gradient_boosting.max_depth", 3)},
			})
		},
	},
	"mlp": {
		Name:     "mlp",
		CostRank: 5,
		Params: []Param{
			{Name: "mlp.width", Kind: Int, Min: 8, Max: 128, Log: true, Default: 32},
			{Name: "mlp.layers", Kind: Int, Min: 1, Max: 2, Default: 1},
			{Name: "mlp.epochs", Kind: Int, Min: 10, Max: 60, Log: true, Default: 30},
			{Name: "mlp.lr", Kind: Float, Min: 0.005, Max: 0.2, Log: true, Default: 0.05},
		},
		Build: func(cfg Config) ml.Classifier {
			width := cfg.Int("mlp.width", 32)
			layers := cfg.Int("mlp.layers", 1)
			hidden := []int{width}
			if layers >= 2 {
				hidden = append(hidden, width)
			}
			return ml.NewMLP(ml.MLPParams{
				Hidden:       hidden,
				Epochs:       cfg.Int("mlp.epochs", 30),
				LearningRate: cfg.Float("mlp.lr", 0.05),
				Batch:        32,
			})
		},
	},
}

// AllModels lists the registered model family names in deterministic
// order.
func AllModels() []string {
	names := make([]string, 0, len(modelRegistry))
	for name := range modelRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModelByName returns the registered model definition.
func ModelByName(name string) (ModelDef, bool) {
	def, ok := modelRegistry[name]
	return def, ok
}

// ModelsByCost lists families sorted by ascending CostRank (ties by name),
// the curriculum order for cost-frugal search.
func ModelsByCost() []string {
	names := AllModels()
	sort.SliceStable(names, func(a, b int) bool {
		ra, rb := modelRegistry[names[a]].CostRank, modelRegistry[names[b]].CostRank
		if ra != rb {
			return ra < rb
		}
		return names[a] < names[b]
	})
	return names
}

// Preprocessor choice lists shared by space construction.
var (
	scalerChoices  = []string{"none", "standard", "minmax", "robust"}
	featureChoices = []string{"none", "select_k_best", "pca", "variance_threshold"}
)

// SpaceSpec declares the shape of an AutoML system's search space
// (paper Table 1).
type SpaceSpec struct {
	// Models lists the allowed model families; empty means all.
	Models []string
	// DataPreprocessors includes scaler and encoder choices.
	DataPreprocessors bool
	// FeaturePreprocessors includes feature selection/projection
	// choices.
	FeaturePreprocessors bool
	// ComplexityCaps shrinks a family's numeric hyperparameter upper
	// bounds: a cap c in (0,1) rescales every numeric range to
	// [Min, Min + c*(Max-Min)]. This is how the development-stage
	// optimizer prunes the ML hyperparameter space itself (paper §3.7).
	ComplexityCaps map[string]float64
}

// FullSpec returns the richest space (ASKL-style: data and feature
// preprocessors plus every model).
func FullSpec() SpaceSpec {
	return SpaceSpec{Models: AllModels(), DataPreprocessors: true, FeaturePreprocessors: true}
}

// models returns the effective family list.
func (ss SpaceSpec) models() []string {
	if len(ss.Models) == 0 {
		return AllModels()
	}
	return ss.Models
}

// Space materializes the spec's configuration space: a top-level model
// choice, every family's conditional hyperparameters, and the preprocessor
// choices the spec enables.
func (ss SpaceSpec) Space() (*Space, error) {
	models := ss.models()
	if len(models) == 0 {
		return nil, fmt.Errorf("pipeline: space spec with no models")
	}
	params := []Param{{Name: "model", Kind: Choice, Choices: models}}
	for _, name := range models {
		def, ok := modelRegistry[name]
		if !ok {
			return nil, fmt.Errorf("pipeline: unknown model family %q", name)
		}
		cap, hasCap := ss.ComplexityCaps[name]
		for _, p := range def.Params {
			if hasCap && cap > 0 && cap < 1 && (p.Kind == Int || p.Kind == Float) && p.Max > p.Min {
				p.Max = p.Min + cap*(p.Max-p.Min)
				if p.Default > p.Max {
					p.Default = p.Max
				}
			}
			params = append(params, p)
		}
	}
	if ss.DataPreprocessors {
		params = append(params,
			Param{Name: "scaler", Kind: Choice, Choices: scalerChoices, Default: 1},
			Param{Name: "imputer_median", Kind: Bool},
			Param{Name: "one_hot", Kind: Bool, Default: 1},
		)
	}
	if ss.FeaturePreprocessors {
		params = append(params,
			Param{Name: "feature_pre", Kind: Choice, Choices: featureChoices},
			Param{Name: "feature_pre.k_frac", Kind: Float, Min: 0.1, Max: 1, Default: 0.5},
		)
	}
	return NewSpace(params...), nil
}

// Build constructs the pipeline a config describes under this spec.
func (ss SpaceSpec) Build(cfg Config, features int) (*Pipeline, error) {
	models := ss.models()
	name := cfg.Choice("model", models, models[0])
	def, ok := modelRegistry[name]
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown model family %q", name)
	}
	p := &Pipeline{Model: def.Build(cfg), ModelFamily: name}
	if ss.DataPreprocessors {
		p.Pre = append(p.Pre, &preprocess.Imputer{Median: cfg.Bool("imputer_median", false)})
		if cfg.Bool("one_hot", true) {
			p.Pre = append(p.Pre, &preprocess.OneHotEncoder{})
		}
		switch cfg.Choice("scaler", scalerChoices, "standard") {
		case "standard":
			p.Pre = append(p.Pre, &preprocess.StandardScaler{})
		case "minmax":
			p.Pre = append(p.Pre, &preprocess.MinMaxScaler{})
		case "robust":
			p.Pre = append(p.Pre, &preprocess.RobustScaler{})
		}
	}
	if ss.FeaturePreprocessors {
		kFrac := cfg.Float("feature_pre.k_frac", 0.5)
		k := int(kFrac * float64(features))
		if k < 1 {
			k = 1
		}
		switch cfg.Choice("feature_pre", featureChoices, "none") {
		case "select_k_best":
			p.Pre = append(p.Pre, &preprocess.SelectKBest{K: k})
		case "pca":
			if k > 16 {
				k = 16
			}
			p.Pre = append(p.Pre, &preprocess.PCA{K: k})
		case "variance_threshold":
			p.Pre = append(p.Pre, &preprocess.VarianceThreshold{Threshold: 0.01})
		}
	}
	return p, nil
}
