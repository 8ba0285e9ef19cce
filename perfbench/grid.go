package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/automl"
	"repro/internal/bench"
	"repro/internal/openml"
	"repro/internal/repo"
)

const (
	// warmShards is how many shard journals grid-warm merges.
	warmShards = 4
	// repoGetSamples is how many repo.Get timings the traced direct pass
	// takes: enough that ten lie beyond the 99th percentile.
	repoGetSamples = 1000
	// repoPutPasses is how often the direct pass re-stores every entry;
	// each Put syncs a file, so it takes fewer samples than Get.
	repoPutPasses = 3
)

// gridSeed is the grid's base seed, greenbench's default. It stays fixed
// because it decides every dataset and every search path, and so how
// much work the grid is: with it drawn from the workload seed, the
// spread between seeds swamped the spread between runs. The workload
// seed orders the lineup instead (see lineup).
const gridSeed = 1

// gridConfig is the grid both grid workloads run: the first datasets of
// the suite at the bench scale, every budget of the size, one seed, one
// grid worker per CPU, consulting rp.
func gridConfig(p *pass, rp *repo.Repository) bench.Config {
	return bench.Config{
		Datasets: openml.Suite()[:p.size.datasets],
		Budgets:  p.size.budgets,
		Seeds:    1,
		Seed:     gridSeed,
		Workers:  runtime.NumCPU(),
		Repo:     rp,
	}
}

// lineup is the default systems in an order drawn from the workload
// seed. Cell records depend only on cell identity, so the order changes
// no record — only the order cells are scheduled in, which decides the
// stragglers at the grid's tail, and the row order of the exports.
func (p *pass) lineup() []automl.System {
	systems := bench.DefaultSystems()
	rand.New(rand.NewPCG(p.seed, 0x11e0)).Shuffle(len(systems), func(i, j int) {
		systems[i], systems[j] = systems[j], systems[i]
	})
	return systems
}

// systems is the lineup, each system wrapped in a timing decorator when
// the pass is traced.
func (p *pass) systems() []automl.System {
	systems := p.lineup()
	if p.tr != nil {
		for i, s := range systems {
			systems[i] = timedSystem{System: s, tr: p.tr}
		}
	}
	return systems
}

// generateSuite generates every suite dataset at the bench scale: the
// openml layer's part of a grid workload's set-up.
func (p *pass) generateSuite() {
	id := p.tr.BeginPhase("openml.generate")
	defer p.tr.EndPhase(id)
	for _, spec := range openml.Suite() {
		openml.Generate(spec, bench.BenchScale(), gridSeed)
	}
}

// publish does what greenbench does with a grid's records: aggregate them
// into the fig3 statistics and export them as path.csv and path.json.
func (p *pass) publish(cfg bench.Config, records []bench.Record, path string) error {
	id := p.tr.BeginPhase("bench.aggregate")
	bench.Fig3FromRecords(cfg, records)
	p.tr.EndPhase(id)
	id = p.tr.BeginPhase("bench.export")
	defer p.tr.EndPhase(id)
	if err := bench.WriteCSVFile(path+".csv", records); err != nil {
		return err
	}
	return bench.WriteJSONFile(path+".json", records)
}

// countCells adds records to the attempts, and the hard-failed or
// fallback-scored ones to the failures.
func (p *pass) countCells(records []bench.Record) {
	p.attempted += len(records)
	for _, r := range records {
		if !r.Scored() || r.Fallback {
			p.failed++
		}
	}
}

// gridCold executes the grid from an empty store with a fresh journal,
// then aggregates and exports it. Nearly all of its time is automl search
// loops and ml kernels.
func gridCold(p *pass) error {
	for i := 0; i < p.size.setups; i++ {
		if err := p.setup(func() error { p.generateSuite(); return nil }); err != nil {
			return err
		}
	}
	systems := p.systems()
	var (
		cfg bench.Config
		dir string
	)
	err := p.timed(func() (int, error) {
		dir = p.path(fmt.Sprintf("cold-%d", len(p.reps)))
		rp, err := repo.Open(filepath.Join(dir, "store"), repo.Options{})
		if err != nil {
			return 0, err
		}
		cfg = gridConfig(p, rp)
		id := p.tr.BeginPhase("bench.grid")
		records, err := bench.RunGridResumable(systems, cfg, filepath.Join(dir, "journal"))
		p.tr.EndPhase(id)
		if err != nil {
			return 0, err
		}
		if err := p.publish(cfg, records, filepath.Join(dir, "cold")); err != nil {
			return 0, err
		}
		p.countCells(records)
		return len(records), nil
	})
	if err != nil {
		return err
	}
	cold, err := os.ReadFile(filepath.Join(dir, "cold.csv"))
	if err != nil {
		return err
	}
	store := filepath.Join(dir, "store")
	if err := p.checkReplayAndMerge(cfg, cold, store, []string{filepath.Join(dir, "journal")}); err != nil {
		return err
	}
	if p.tr == nil {
		return nil
	}
	return p.repoPass(cfg, store)
}

// gridWarm fills a store with the grid in its set-up, then times three
// zero-fit user operations over it: a warm replay from the read-only
// store, a merge of shard journals, and ensemble simulation.
func gridWarm(p *pass) error {
	store := p.path("store")
	shards := make([]string, warmShards)
	var cold []byte
	err := p.setup(func() error {
		p.generateSuite()
		rp, err := repo.Open(store, repo.Options{})
		if err != nil {
			return err
		}
		records, err := bench.RunGridResumable(p.lineup(), gridConfig(p, rp), p.path("fill.journal"))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := bench.WriteCSV(&buf, records); err != nil {
			return err
		}
		cold = buf.Bytes()
		// Every cell is a store hit now, so the shards fit nothing.
		ro, err := repo.Open(store, repo.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		for i := range shards {
			shards[i] = p.path(fmt.Sprintf("shard-%d.journal", i))
			cfg := gridConfig(p, ro)
			cfg.Shard = bench.ShardSpec{Index: i, Count: warmShards}
			if _, err := bench.RunShard(p.lineup(), cfg, shards[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	ro, err := repo.Open(store, repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	cfg := gridConfig(p, ro)
	systems := p.systems()
	fingerprint, refs := bench.Fingerprint(systems, cfg), bench.EnumerateCellRefs(systems, cfg)
	fits := bench.FitProbeCount()
	err = p.timed(func() (int, error) {
		id := p.tr.BeginPhase("bench.replay")
		replayed := bench.RunGrid(systems, cfg)
		p.tr.EndPhase(id)
		if err := p.publish(cfg, replayed, p.path("warm")); err != nil {
			return 0, err
		}
		id = p.tr.BeginPhase("bench.merge")
		merged, err := bench.MergeJournals(shards, fingerprint, refs)
		p.tr.EndPhase(id)
		if err != nil {
			return 0, err
		}
		if err := p.publish(cfg, merged.Records, p.path("merged")); err != nil {
			return 0, err
		}
		id = p.tr.BeginPhase("bench.simulate")
		sim, err := bench.SimulateEnsembles(systems, cfg, ro)
		p.tr.EndPhase(id)
		if err != nil {
			return 0, err
		}
		p.countCells(replayed)
		p.countCells(merged.Records)
		p.attempted += sim.Hits + sim.Missing + sim.Damaged
		p.failed += sim.Missing + sim.Damaged
		return len(replayed) + len(merged.Records) + sim.Hits, nil
	})
	if err != nil {
		return err
	}
	p.check(bench.FitProbeCount() == fits, "the warm timed phase fitted %d times", bench.FitProbeCount()-fits)
	for _, name := range []string{"warm", "merged"} {
		got, err := os.ReadFile(p.path(name + ".csv"))
		if err != nil {
			return err
		}
		p.check(bytes.Equal(got, cold), "the timed %s export differs from the cold CSV", name)
	}
	if err := p.checkReplayAndMerge(cfg, cold, store, shards); err != nil {
		return err
	}
	if p.tr == nil {
		return nil
	}
	return p.repoPass(cfg, store)
}

// checkReplayAndMerge is the grid correctness gate: replaying the grid
// from the read-only store must fit nothing, and both the replay and the
// merge of the journals must export CSV byte-identical to cold. It pins
// the cold CSV's sha256.
func (p *pass) checkReplayAndMerge(cfg bench.Config, cold []byte, store string, journals []string) error {
	ro, err := repo.Open(store, repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	cfg.Repo = ro
	systems := p.lineup()
	fits := bench.FitProbeCount()
	replayed := bench.RunGrid(systems, cfg)
	p.check(bench.FitProbeCount() == fits, "the warm replay fitted %d times", bench.FitProbeCount()-fits)
	merged, err := bench.MergeJournals(journals, bench.Fingerprint(systems, cfg), bench.EnumerateCellRefs(systems, cfg))
	if err != nil {
		return err
	}
	p.check(len(merged.Missing) == 0, "the merge left %d cells missing", len(merged.Missing))
	for _, e := range []struct {
		what    string
		records []bench.Record
	}{{"warm replay", replayed}, {"merge", merged.Records}} {
		var buf bytes.Buffer
		if err := bench.WriteCSV(&buf, e.records); err != nil {
			return err
		}
		p.check(bytes.Equal(buf.Bytes(), cold), "the %s CSV differs from the cold CSV", e.what)
	}
	sum := sha256.Sum256(cold)
	p.pinned["grid_csv_sha256"] = hex.EncodeToString(sum[:])
	return nil
}

// repoPass measures the repository layer directly, outside any grid: a
// repo.Get of every grid cell, repeated for enough samples, and a
// repo.Put of each entry into a scratch store.
func (p *pass) repoPass(cfg bench.Config, store string) error {
	ro, err := repo.Open(store, repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	scratch, err := repo.Open(p.path("scratch-store"), repo.Options{})
	if err != nil {
		return err
	}
	systems := p.lineup()
	fingerprint, refs := bench.Fingerprint(systems, cfg), bench.EnumerateCellRefs(systems, cfg)
	var gets, puts []time.Duration
	for round := 0; len(gets) < repoGetSamples || round < repoPutPasses; round++ {
		for _, ref := range refs {
			start := time.Now()
			e, _, err := ro.Get(fingerprint, ref.ID())
			gets = append(gets, time.Since(start))
			if err != nil {
				return err
			}
			if e == nil {
				return fmt.Errorf("the store lacks cell %s", ref.ID())
			}
			if round >= repoPutPasses {
				continue
			}
			start = time.Now()
			if err := scratch.Put(e); err != nil {
				return err
			}
			puts = append(puts, time.Since(start))
		}
	}
	var storeBytes int64
	err = filepath.WalkDir(filepath.Join(store, fingerprint), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		storeBytes += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	p.layers["repo.get_calls"] = float64(len(gets))
	p.layers["repo.get_p50_us"] = us(quantile(gets, 0.50))
	p.layers["repo.get_p99_us"] = us(quantile(gets, 0.99))
	// Each Get reads its cell's whole file, and the store holds one file
	// per grid cell.
	p.layers["repo.read_bytes"] = float64(storeBytes) * float64(len(gets)) / float64(len(refs))
	p.layers["repo.put_calls"] = float64(len(puts))
	p.layers["repo.put_p50_us"] = us(quantile(puts, 0.50))
	p.layers["repo.put_p99_us"] = us(quantile(puts, 0.99))
	return nil
}
