// Command greenserve is the energy-metered inference daemon: it loads a
// fitted pipeline from a versioned artifact (see greenrun -save-artifact)
// and serves it with the robustness rails of internal/serve — bounded
// admission, deadline-aware micro-batching, a circuit breaker with
// majority-class degradation, and graceful drain.
//
// Daemon mode binds an HTTP API:
//
//	greenserve -model run/adult.model -addr :8080 -journal serve.jsonl
//
//	POST /predict {"row":[...], "deadline_ms":50}  -> one prediction
//	GET  /stats                                    -> outcome counts, breaker, energy
//	POST /reload {"path":"run/adult-v2.model"}     -> atomic hot swap; corrupt
//	                                                  artifacts are refused and the
//	                                                  old model keeps serving
//
// SIGINT/SIGTERM drains: queued requests resolve, new ones shed.
//
// Load-generation mode runs entirely on the virtual clock — millions of
// simulated users, zero wall-time dependence — and prints latency
// percentiles against watts:
//
//	greenserve -model run/adult.model -loadgen -users 1000000 -rate 50000 -requests 200000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/atomicio"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/serve"
)

// options holds every flag value, so validation is a pure function the
// tests can drive table-style without a process boundary.
type options struct {
	model   string
	addr    string
	journal string

	queueCap         int
	batchMax         int
	batchWindow      time.Duration
	predictTimeout   time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	loadgen      bool
	users        int
	rate         float64
	requests     int
	paretoAlpha  float64
	deadline     time.Duration
	deadlineFrac float64
	seed         uint64
}

// validate rejects malformed and contradictory flag combinations with a
// one-line error instead of misbehaving partway into a run.
func (o *options) validate() error {
	if o.model == "" {
		return fmt.Errorf("-model is required: greenserve serves artifacts written by greenrun -save-artifact")
	}
	if o.queueCap < 0 {
		return fmt.Errorf("-queue-cap %d must not be negative (0 means the default)", o.queueCap)
	}
	if o.batchMax < 0 {
		return fmt.Errorf("-batch-max %d must not be negative (0 means the default)", o.batchMax)
	}
	if o.batchWindow < 0 {
		return fmt.Errorf("-batch-window %v must not be negative (0 means the default)", o.batchWindow)
	}
	if o.breakerThreshold < 0 {
		return fmt.Errorf("-breaker-threshold %d must not be negative (0 means the default)", o.breakerThreshold)
	}
	if o.breakerCooldown < 0 {
		return fmt.Errorf("-breaker-cooldown %v must not be negative (0 means the default)", o.breakerCooldown)
	}
	if o.loadgen {
		if o.users < 0 {
			return fmt.Errorf("-users %d must not be negative (0 means open loop)", o.users)
		}
		if o.rate <= 0 {
			return fmt.Errorf("-rate %v must be positive in -loadgen mode", o.rate)
		}
		if o.requests < 1 {
			return fmt.Errorf("-requests %d must be at least 1 in -loadgen mode", o.requests)
		}
		if o.paretoAlpha <= 1 {
			return fmt.Errorf("-pareto-alpha %v must exceed 1 (the tail must have a finite mean)", o.paretoAlpha)
		}
		if o.deadlineFrac < 0 || o.deadlineFrac > 1 {
			return fmt.Errorf("-deadline-frac %v must be in [0, 1]", o.deadlineFrac)
		}
		if o.deadlineFrac > 0 && o.deadline <= 0 {
			return fmt.Errorf("-deadline must be positive when -deadline-frac is set")
		}
	} else {
		if o.addr == "" {
			return fmt.Errorf("-addr is required in daemon mode (or pass -loadgen)")
		}
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.users != 0, "-users"},
			{o.requests != 0, "-requests"},
			{o.deadlineFrac != 0, "-deadline-frac"},
		} {
			if bad.set {
				return fmt.Errorf("%s only applies to -loadgen mode", bad.name)
			}
		}
	}
	return nil
}

// engineConfig maps the shared rail flags onto the serve configuration.
func (o *options) engineConfig() serve.Config {
	return serve.Config{
		QueueCap:         o.queueCap,
		BatchMax:         o.batchMax,
		BatchWindow:      o.batchWindow,
		PredictTimeout:   o.predictTimeout,
		BreakerThreshold: o.breakerThreshold,
		BreakerCooldown:  o.breakerCooldown,
	}
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "", "artifact path to serve (written by greenrun -save-artifact)")
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address for daemon mode")
	flag.StringVar(&o.journal, "journal", "", "append a checksummed metering journal of every resolution to this path")
	flag.IntVar(&o.queueCap, "queue-cap", 0, "admission queue bound; requests beyond it are shed (0 = default 256)")
	flag.IntVar(&o.batchMax, "batch-max", 0, "max rows per predict micro-batch (0 = default 32)")
	flag.DurationVar(&o.batchWindow, "batch-window", 0, "how long a batch waits to fill before flushing (0 = default 2ms)")
	flag.DurationVar(&o.predictTimeout, "predict-timeout", 0, "per-batch predict budget; overruns fail and count against the breaker (0 = default 250ms, negative = off)")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive batch failures that trip the breaker to the fallback tier (0 = default 4)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 0, "how long the breaker stays open before a half-open probe (0 = default 1s)")
	flag.BoolVar(&o.loadgen, "loadgen", false, "run the deterministic load generator on the virtual clock instead of serving HTTP")
	flag.IntVar(&o.users, "users", 0, "closed-loop user population for -loadgen (0 = open loop)")
	flag.Float64Var(&o.rate, "rate", 1000, "mean arrival rate in requests/second for -loadgen")
	flag.IntVar(&o.requests, "requests", 0, "total requests to issue in -loadgen mode")
	flag.Float64Var(&o.paretoAlpha, "pareto-alpha", 1.5, "tail index of inter-arrival and think times (smaller = heavier tail)")
	flag.DurationVar(&o.deadline, "deadline", 0, "relative deadline carried by -deadline-frac of generated requests")
	flag.Float64Var(&o.deadlineFrac, "deadline-frac", 0, "fraction of generated requests carrying -deadline in [0, 1]")
	flag.Uint64Var(&o.seed, "seed", 1, "load-generator seed; identical seeds replay identical runs")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "greenserve:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "greenserve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	model, art, err := loadModel(o.model)
	if err != nil {
		return err
	}
	machine := hw.XeonGold6132()
	eng := serve.NewEngine(model, machine, o.engineConfig())
	if o.journal != "" {
		j, err := serve.NewJournal(o.journal, model.Name)
		if err != nil {
			return err
		}
		defer j.Close()
		eng.SetJournal(j)
	}
	fmt.Fprintf(os.Stderr, "greenserve: loaded %s (dataset %s, %d classes, fingerprint %016x)\n",
		o.model, art.Spec.Dataset, model.Classes, art.Fingerprint)

	if o.loadgen {
		return runLoadGen(o, eng, art)
	}
	return runDaemon(o, eng)
}

// loadModel loads and verifies the artifact, refusing corruption with
// its taxonomy intact, and adapts it for serving. The verification
// refit's cost is reported so operators see that loading is not free;
// it is not charged to the serving tracker, whose inference ledger must
// stay a pure sum of per-request charges.
func loadModel(path string) (*serve.Model, *artifact.Model, error) {
	a, cost, err := artifact.Load(path)
	flops := cost.Generic + cost.Tree + cost.Matrix
	if err != nil {
		return nil, nil, fmt.Errorf("loading artifact %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "greenserve: artifact %s verified (refit cost %.0f FLOPs)\n", path, flops)
	return serve.NewModel(a), a, nil
}

// runLoadGen drives the engine on the virtual clock, sampling traffic
// rows from the artifact's training frame, and prints the
// latency-vs-watts report plus the conservation cross-check.
func runLoadGen(o options, eng *serve.Engine, art *artifact.Model) error {
	g := serve.LoadGen{
		Users:        o.users,
		Rate:         o.rate,
		Requests:     o.requests,
		ParetoAlpha:  o.paretoAlpha,
		Deadline:     o.deadline,
		DeadlineFrac: o.deadlineFrac,
		Seed:         o.seed,
	}
	rep := g.Run(eng, art.Spec.Train.All())
	fmt.Println(rep)
	if got := eng.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		return fmt.Errorf("conservation violated: ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
	fmt.Printf("ledger: %.6f J across %d resolutions, conservation exact\n", rep.LedgerJoules, o.requests)
	return nil
}

// runDaemon serves the HTTP API until SIGINT/SIGTERM, then drains.
func runDaemon(o options, eng *serve.Engine) error {
	srv := serve.NewServer(eng)
	httpSrv := &http.Server{Addr: o.addr, Handler: newMux(srv)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "greenserve: listening on %s\n", o.addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "greenserve: %s: draining\n", s)
		srv.Drain()
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "greenserve: drained: %s\n", formatStats(st))
		return httpSrv.Close()
	}
}

// newMux builds the daemon's HTTP API over a serving bridge.
func newMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Row        []float64 `json:"row"`
			DeadlineMS float64   `json:"deadline_ms"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Row) == 0 {
			http.Error(w, "body must be {\"row\":[...], \"deadline_ms\":0}", http.StatusBadRequest)
			return
		}
		resp := srv.Predict(req.Row, time.Duration(req.DeadlineMS*float64(time.Millisecond)))
		writeJSON(w, statusFor(resp), map[string]any{
			"outcome":    resp.Outcome.String(),
			"class":      resp.Class,
			"proba":      resp.Proba,
			"latency_us": resp.Latency.Microseconds(),
			"joules":     resp.Joules,
			"error":      resp.Err,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsPayload(srv.Stats()))
	})
	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
			http.Error(w, "body must be {\"path\":\"...\"}", http.StatusBadRequest)
			return
		}
		m, _, err := loadModel(req.Path)
		if err != nil {
			// The refusal taxonomy maps to 409: the artifact on disk is
			// unusable and the previous model keeps serving.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": err.Error(), "kind": refusalKind(err), "serving": srv.Stats().Model,
			})
			return
		}
		srv.Reload(m)
		writeJSON(w, http.StatusOK, map[string]any{"serving": m.Name})
	})
	return mux
}

// statusFor maps the outcome taxonomy onto HTTP status codes: refusals
// are 503 (retryable elsewhere), expiry is 504, degradation still
// answers 200 but is labeled in the body.
func statusFor(r serve.Response) int {
	switch r.Outcome {
	case serve.Shed:
		return http.StatusServiceUnavailable
	case serve.Expired:
		return http.StatusGatewayTimeout
	case serve.Failed:
		return http.StatusInternalServerError
	default:
		return http.StatusOK
	}
}

// refusalKind names which layer of the artifact taxonomy refused.
func refusalKind(err error) string {
	switch {
	case errors.Is(err, artifact.ErrVersion):
		return "version-mismatch"
	case errors.Is(err, artifact.ErrFingerprint):
		return "fingerprint-mismatch"
	case errors.Is(err, artifact.ErrMalformed):
		return "malformed"
	case errors.Is(err, atomicio.ErrChecksum):
		return "corrupt"
	case errors.Is(err, atomicio.ErrMalformed):
		return "truncated"
	default:
		return "unreadable"
	}
}

func statsPayload(st serve.Stats) map[string]any {
	outcomes := make(map[string]int, len(st.Outcomes))
	for o, n := range st.Outcomes {
		outcomes[serve.Outcome(o).String()] = n
	}
	return map[string]any{
		"model":           st.Model,
		"outcomes":        outcomes,
		"batches":         st.Batches,
		"breaker":         st.Breaker.String(),
		"breaker_trips":   st.BreakerTrips,
		"queue_len":       st.QueueLen,
		"kwh":             st.KWh,
		"journal_dropped": st.JournalDropped,
	}
}

func formatStats(st serve.Stats) string {
	s := fmt.Sprintf("model %s, %d served, %d shed, %d expired, %d degraded, %d failed, %.6f kWh",
		st.Model, st.Outcomes[serve.Served], st.Outcomes[serve.Shed], st.Outcomes[serve.Expired],
		st.Outcomes[serve.Degraded], st.Outcomes[serve.Failed], st.KWh)
	if st.JournalDropped > 0 {
		s += fmt.Sprintf(", %d journal operations failed", st.JournalDropped)
	}
	return s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
