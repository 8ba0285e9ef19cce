package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/openml"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tabular"
)

const (
	// modelSeed fixes the served model's training data and refit. The
	// workload seed draws the request stream only: a model fitted per seed
	// made predict cost, and so throughput, differ more between seeds
	// than between runs.
	modelSeed = 1
	// overloadRate is far above any model's virtual capacity; the
	// set-up's probe at this rate measures the capacity.
	overloadRate = 1e6
	// openLoad is serve-open's arrival rate as a share of the capacity:
	// just under it, so the engine is busy most of the time and batches
	// run large, while bursts queue up and drain.
	openLoad = 0.9
	// closedUsers and closedRate make serve-closed's small population;
	// each user waits for its answer, so batches stay a few rows.
	closedUsers = 8
	closedRate  = 4000
)

// served is what a serving workload's set-up produces: the model loaded
// from its artifact, the rows traffic is drawn from, and the model's
// virtual capacity in requests per second.
type served struct {
	model    *serve.Model
	traffic  tabular.View
	capacity float64
}

// serveSetup builds the served model from nothing: it generates adult at
// the bench scale, fits a random forest with artifact.Build, saves it,
// loads it back (Load refits and verifies the fingerprint) and probes the
// model's capacity with an overloaded open loop.
func (p *pass) serveSetup() (served, error) {
	spec, ok := openml.ByName("adult")
	if !ok {
		return served{}, fmt.Errorf("the suite has no adult dataset")
	}
	train := openml.Generate(spec, bench.BenchScale(), modelSeed)
	// Build and Load return the refit's virtual cost for a meter to
	// charge; nothing here meters, so it is dropped.
	id := p.tr.BeginPhase("artifact.build")
	built, _, err := artifact.Build(artifact.Spec{
		Dataset: spec.Name,
		Models:  []string{"random_forest"},
		Params:  pipeline.Config{"model": 0},
		Seed:    modelSeed,
		Train:   train,
	})
	p.tr.EndPhase(id)
	if err != nil {
		return served{}, err
	}
	path := p.path("adult.model")
	if err := artifact.Save(path, built); err != nil {
		return served{}, err
	}
	id = p.tr.BeginPhase("artifact.load")
	loaded, _, err := artifact.Load(path)
	p.tr.EndPhase(id)
	if err != nil {
		return served{}, err
	}
	s := served{model: serve.NewModel(loaded), traffic: loaded.Spec.Train.All()}
	probe := serve.LoadGen{Rate: overloadRate, Requests: p.size.requests, Seed: modelSeed}
	rep := probe.Run(serve.NewEngine(s.model, hw.XeonGold6132(), serve.Config{}), s.traffic)
	s.capacity = float64(rep.Outcomes[serve.Served]) / rep.SimTime.Seconds()
	return s, nil
}

// serveLoad drives the loaded model with the load generator, a journal
// attached, repeating the same run for the pass's seconds: an open loop
// just under the model's capacity, or a small closed-loop population.
func serveLoad(p *pass, closed bool) error {
	var s served
	for i := 0; i < p.size.setups; i++ {
		err := p.setup(func() (err error) {
			s, err = p.serveSetup()
			return err
		})
		if err != nil {
			return err
		}
	}
	gen := serve.LoadGen{Rate: openLoad * s.capacity, Requests: p.size.requests, Seed: p.seed}
	if closed {
		gen.Users, gen.Rate = closedUsers, closedRate
	}
	model := s.model
	if p.tr != nil {
		traced := *model
		traced.Pred = newTimedPredictor(model.Pred, "serve", p.tr)
		model = &traced
	}
	// The admission queue holds a whole run, so no request is ever shed:
	// with the default 256 slots an open-loop burst sheds a few requests
	// on some seeds, and a benchmark operation must not fail.
	cfg := serve.Config{QueueCap: p.size.requests}
	journal := p.path("serve.journal")
	var last serve.Report
	err := p.timed(func() (int, error) {
		eng := serve.NewEngine(model, hw.XeonGold6132(), cfg)
		j, err := serve.NewJournal(journal, model.Name)
		if err != nil {
			return 0, err
		}
		eng.SetJournal(j)
		id := p.tr.BeginPhase("serve.loadgen")
		last = gen.Run(eng, s.traffic)
		p.tr.EndPhase(id)
		if err := j.Close(); err != nil {
			return 0, err
		}
		tracker := eng.Tracker().Joules(energy.Inference)
		p.check(last.LedgerJoules == tracker, "the ledger's %v J differs from the tracker's %v J", last.LedgerJoules, tracker)
		p.attempted += last.Requests
		p.failed += last.Requests - last.Outcomes[serve.Served]
		return last.Requests, nil
	})
	if err != nil {
		return err
	}

	id := p.tr.BeginPhase("serve.journal_replay")
	replayed, err := serve.ReplayJournal(journal)
	p.tr.EndPhase(id)
	if err != nil {
		return err
	}
	p.check(replayed.TotalJoules() == last.LedgerJoules, "the journal replays %v J, the ledger holds %v J", replayed.TotalJoules(), last.LedgerJoules)
	p.check(len(replayed.Records) == last.Requests && !replayed.Torn && replayed.Damaged == 0,
		"the journal replays %d records (torn %v, %d damaged) for %d requests", len(replayed.Records), replayed.Torn, replayed.Damaged, last.Requests)
	p.pinned["ledger_joules"] = strconv.FormatFloat(last.LedgerJoules, 'g', -1, 64)
	for o := serve.Served; o <= serve.Failed; o++ {
		p.pinned["outcomes."+o.String()] = strconv.Itoa(last.Outcomes[o])
		p.layers["serve.outcomes."+o.String()] = float64(last.Outcomes[o])
	}
	if p.tr == nil {
		return nil
	}
	return p.journalAppendPass(replayed, model.Name)
}

// journalAppendPass times serve.Journal.Append alone by re-journaling the
// replayed responses into a scratch journal.
func (p *pass) journalAppendPass(replayed *serve.Replayed, model string) error {
	outcomes := make(map[string]serve.Outcome)
	for o := serve.Served; o <= serve.Failed; o++ {
		outcomes[o.String()] = o
	}
	resps := make([]serve.Response, len(replayed.Records))
	for i, r := range replayed.Records {
		resps[i] = serve.Response{
			ID:      r.ID,
			Outcome: outcomes[r.Outcome],
			Class:   r.Class,
			Done:    r.Done(),
			Latency: time.Duration(r.LatencyUS) * time.Microsecond,
			Joules:  r.Joules,
			Err:     r.Err,
		}
	}
	j, err := serve.NewJournal(p.path("append.journal"), model)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := range resps {
		j.Append(&resps[i])
	}
	elapsed := time.Since(start)
	if err := j.Close(); err != nil {
		return err
	}
	p.layers["serve.journal_append_ns_per_line"] = float64(elapsed.Nanoseconds()) / float64(max(len(resps), 1))
	return nil
}
