package bench

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
	"repro/internal/openml"
	"repro/internal/tabular"
	"repro/internal/vclock"
)

// gridPos is one cell's place in the benchmark grid: the dataset and
// seed indices that key its shared dataset and split, and the identity
// (system × dataset × budget × cell seed) its records are keyed by.
type gridPos struct {
	di, seed int
	spec     openml.Spec
	sys      automl.System
	budget   time.Duration
	cellSeed uint64
}

// gridCellSeed derives a cell's seed from its dataset and seed indices
// — from cell identity, never from execution order, which is what lets
// cells run in any order, on any number of workers, and on any shard.
func gridCellSeed(di, seed int) uint64 { return uint64(seed)*1009 + uint64(di) }

// walkGrid visits every cell of the grid in canonical order — dataset
// outermost, then seed, system and budget — skipping budgets below a
// system's minimum (ASKL starts at 30s, TPOT at 1m). It is the one
// definition of which cells exist and in what order: enumerateGrid and
// EnumerateCellRefs both follow it. A visit error stops the walk and is
// returned.
func walkGrid(systems []automl.System, cfg Config, visit func(gridPos) error) error {
	for di, spec := range cfg.Datasets {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cellSeed := gridCellSeed(di, seed)
			for _, sys := range systems {
				for _, budget := range cfg.Budgets {
					if budget < sys.MinBudget() {
						continue
					}
					if err := visit(gridPos{di: di, seed: seed, spec: spec, sys: sys, budget: budget, cellSeed: cellSeed}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// gridSplits is the grid's lazy split source: it generates each dataset
// on first use (with generateDataset's retries and fault draws) and
// derives each (dataset, seed) train/test split once, from an RNG
// stream keyed by identity. Walks are dataset-major, so it holds one
// dataset and one split at a time; a dataset no caller asks for is
// never generated, and since the injector's dataset-fault draws are
// site-keyed, skipping one cannot perturb any other decision.
type gridSplits struct {
	cfg         Config
	inj         *faults.Injector
	di, seed    int // the cached dataset and split; -1 when none
	ds          *tabular.Frame
	dsErr       error
	train, test tabular.View
}

func newGridSplits(cfg Config, inj *faults.Injector) *gridSplits {
	return &gridSplits{cfg: cfg, inj: inj, di: -1, seed: -1}
}

// split returns dataset di's train/test split for seed index seed, or
// the error that kept the dataset from materializing.
func (g *gridSplits) split(di, seed int) (train, test tabular.View, err error) {
	if di != g.di {
		g.di, g.seed = di, -1
		g.ds, g.dsErr = generateDataset(g.cfg.Datasets[di], g.cfg, g.inj)
	}
	if g.dsErr != nil {
		return tabular.View{}, tabular.View{}, g.dsErr
	}
	if seed != g.seed {
		g.seed = seed
		g.train, g.test = g.ds.All().TrainTestSplit(rand.New(rand.NewPCG(g.cfg.Seed+uint64(seed)*101, uint64(di))))
	}
	return g.train, g.test, nil
}

// gridCell is one enumerated cell of the benchmark grid, carrying
// everything a worker needs to execute it: the shared, read-only
// train/test split, and — when resuming — the completed record that
// makes execution unnecessary.
type gridCell struct {
	gridPos
	train tabular.View
	test  tabular.View
	// dsErr records a dataset that never materialized; every dependent
	// cell yields a failure record instead of silently shrinking the
	// grid.
	dsErr error
	// cached is the already-completed record of the cell — from the
	// journal, or (fromRepo) decoded out of the evaluation repository.
	cached *Record
	// fromRepo marks a cached record that came from the repository
	// rather than the journal; such cells still append to the journal,
	// so shard journals stay complete and merges never see holes.
	fromRepo bool
	// id is the cell's journal/repository key.
	id string
}

// enumerateGrid walks the grid and materializes every immutable
// per-cell input up front, so workers share datasets and splits
// read-only and never recompute state that does not depend on the
// cell's own execution.
//
// With cfg.Shard set, only the cells the shard owns are enumerated.
// Ownership is a pure function of (grid fingerprint, cell identity), and
// datasets and splits are keyed by identity too, so the cells a shard
// materializes are bit-identical to the same cells of an unsharded
// enumeration, and a shard that owns no cell of a dataset never
// generates it.
//
// With cfg.Repo set, every cell the journal does not already cover
// consults the repository: a verified entry replays its record exactly
// as a journal checkpoint would (the cell never executes), a miss runs
// live, and damage follows the repository's policy — counted under
// AllowDamage, otherwise aborting enumeration. The returned RepoStats
// reports that traffic (Stored is filled in later by runCells).
func enumerateGrid(systems []automl.System, cfg Config, inj *faults.Injector, journal *Journal, fingerprint string) ([]gridCell, RepoStats, error) {
	var stats RepoStats
	var cells []gridCell
	splits := newGridSplits(cfg, inj)
	err := walkGrid(systems, cfg, func(p gridPos) error {
		id := cellID(p.sys.Name(), p.spec.Name, p.budget, p.cellSeed)
		if !cfg.Shard.Owns(fingerprint, id) {
			return nil
		}
		cell := gridCell{gridPos: p, id: id}
		cell.train, cell.test, cell.dsErr = splits.split(p.di, p.seed)
		if journal != nil {
			if rec, ok := journal.Lookup(id); ok {
				cell.cached = &rec
			}
		}
		if cell.cached == nil && cfg.Repo != nil {
			rec, hit, damaged, err := repoLookup(cfg.Repo, fingerprint, id)
			if err != nil {
				return err
			}
			switch {
			case damaged:
				stats.Damaged++
				stats.Misses++
			case hit:
				stats.Hits++
				cell.cached = &rec
				cell.fromRepo = true
			default:
				stats.Misses++
			}
		}
		cells = append(cells, cell)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return cells, stats, nil
}

// fitOutcome carries one Fit attempt's result across the watchdog
// boundary.
type fitOutcome struct {
	res *automl.Result
	err error
}

// fitWithWatchdog runs one Fit attempt under the stall watchdog. The
// attempt executes on its own goroutine while the watchdog samples the
// cell's virtual clock through the concurrency-safe Probe mirror; an
// attempt whose virtual clock fails to advance across wd.Probes
// consecutive probe intervals has its abandon channel closed.
// Abandonment is advisory and cooperative: the watchdog then waits for
// the attempt to return and believes what it says. A parked hang — the
// injected kind — acknowledges immediately with a typed stall error
// and is recorded as stalled; a cell the probe timer merely caught
// between two virtual-clock advances (scheduling jitter, a slow
// machine, -race) runs to completion and its real result stands.
// Whether a cell stalls is therefore a pure function of the injected
// fault plan — never of real time — so records stay byte-identical at
// every worker count and probe interval. The flip side is that a
// trainer which neither finishes nor acknowledges would keep its
// worker parked (Go cannot kill a goroutine); every in-repo trainer
// terminates in bounded virtual time or parks on the abandon channel,
// so the wait is bounded in practice. With the watchdog disabled this
// is exactly safeFit.
func fitWithWatchdog(sys automl.System, train tabular.View, opts automl.Options, wd WatchdogPolicy) (res *automl.Result, stalled bool, err error) {
	if !wd.Enabled() {
		res, err = safeFit(sys, train, opts)
		return res, false, err
	}
	abandon := make(chan struct{})
	opts.Abandon = abandon
	clock := opts.Meter.Clock()
	done := make(chan fitOutcome, 1)
	go func() {
		r, ferr := safeFit(sys, train, opts)
		done <- fitOutcome{res: r, err: ferr}
	}()
	//greenlint:allow wallclock watchdog probe timer is operator-facing real time; stall decisions depend only on virtual progress
	ticker := time.NewTicker(wd.Interval)
	defer ticker.Stop()
	stall := vclock.NewStallCounter(wd.Probes)
	stall.Observe(int64(clock.Probe()))
	for {
		select {
		case out := <-done:
			return out.res, false, out.err
		case <-ticker.C:
			if !stall.Observe(int64(clock.Probe())) {
				continue
			}
			// No virtual progress across wd.Probes intervals: the cell
			// looks wedged. Close the abandon channel and wait for the
			// attempt to unwind; receiving its outcome gives the caller a
			// happens-before edge, so reading the shared meter afterwards
			// is race-free. Only a typed stall acknowledgement — the
			// parked hang unwinding — records a stall; a cell that was
			// merely slow between clock advances returns its real result,
			// which keeps stall records independent of real time.
			close(abandon)
			out := <-done
			if faults.KindOf(out.err, faults.None) == faults.Stall {
				return nil, true, nil
			}
			return out.res, false, out.err
		}
	}
}

// runCells executes the cells on a bounded pool of cfg.Workers workers
// (at most one per cell). Each cell is independent — its RNG streams
// derive from cell identity, its meters are private, the shared datasets
// are read-only and the fault injector is pure — so workers need no
// coordination beyond the journal mutex. Results land in a slice indexed
// by enumeration order, which makes the returned records (and therefore
// every export and figure) byte-identical at any worker count; a pool of
// one executes the cells in grid order. Only the journal's on-disk line
// order varies, and resume replays it by cell identity, not position.
//
// Cached cells replay without executing. Journal hits never re-append;
// repository hits still checkpoint to the journal, so a shard journal
// covers every owned cell for merges. The first journal or repository
// failure stops dispatch, lets the workers drain, and is returned with
// no records.
func runCells(cells []gridCell, cfg Config, inj *faults.Injector, journal *Journal, fingerprint string) ([]Record, int, error) {
	records := make([]Record, len(cells))
	var stored atomic.Int64
	run := func(ci int) error {
		c := cells[ci]
		if c.cached != nil {
			records[ci] = *c.cached
			if c.fromRepo && journal != nil {
				return journal.Append(*c.cached)
			}
			return nil
		}
		var rec Record
		var payload *cellPayload
		if c.dsErr != nil {
			rec = Record{
				System: c.sys.Name(), Dataset: c.spec.Name,
				Budget: c.budget, Seed: c.cellSeed,
				Failure: faults.KindOf(c.dsErr, faults.DatasetError), Attempts: cfg.Retry.MaxAttempts,
			}
		} else {
			rec, payload = runCell(c.sys, c.train, c.test, c.budget, cfg, c.cellSeed, inj)
		}
		if journal != nil {
			if err := journal.Append(rec); err != nil {
				return err
			}
		}
		ok, err := storeCell(cfg.Repo, fingerprint, c.id, rec, payload)
		if err != nil {
			return err
		}
		if ok {
			stored.Add(1)
		}
		records[ci] = rec
		return nil
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < min(cfg.Workers, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				if failed.Load() {
					continue // drain work handed out before the failure
				}
				if err := run(ci); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
				}
			}
		}()
	}
	for ci := range cells {
		if failed.Load() {
			break
		}
		work <- ci
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, int(stored.Load()), firstErr
	}
	return records, int(stored.Load()), nil
}
