package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/metaopt"
	"repro/internal/openml"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"fig99"}, bench.Config{}, metaopt.Options{}, "", "", "", "", "", nil)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTinyFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small grid")
	}
	spec, _ := openml.ByName("credit-g")
	cfg := bench.Config{
		Datasets: []openml.Spec{spec},
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    1,
		Scale:    openml.SmallScale(),
	}
	if err := run([]string{"fig4"}, cfg, metaopt.Options{}, "", "", "", "", "", nil); err != nil {
		t.Fatal(err)
	}
}

// defaultOptions parses an empty command line, so each validation case
// can perturb exactly one knob of the real flag defaults.
func defaultOptions() options {
	var o options
	_ = newFlagSet(&o).Parse(nil)
	return o
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring of the error; "" means the options must validate
	}{
		{name: "defaults", mutate: func(o *options) {}},
		{name: "shard with journal", mutate: func(o *options) {
			o.shard = "0/4"
			o.journal = "s0.jsonl"
		}},
		{name: "last shard", mutate: func(o *options) {
			o.shard = "3/4"
			o.journal = "s3.jsonl"
		}},
		{name: "coordinator", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 4
			o.shardDir = "run"
		}},
		{name: "merge fig3-derived", mutate: func(o *options) {
			o.merge = "s0.jsonl,s1.jsonl"
			o.experiment = "fig3,table4,winners"
		}},

		{name: "shard index at count", mutate: func(o *options) {
			o.shard = "4/4"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard index beyond count", mutate: func(o *options) {
			o.shard = "7/4"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard count zero", mutate: func(o *options) {
			o.shard = "0/0"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard count negative", mutate: func(o *options) {
			o.shard = "0/-2"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard negative index", mutate: func(o *options) {
			o.shard = "-1/4"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard garbage", mutate: func(o *options) {
			o.shard = "banana"
			o.journal = "s.jsonl"
		}, wantErr: "shard"},
		{name: "shard without journal", mutate: func(o *options) {
			o.shard = "0/2"
		}, wantErr: "requires -journal"},
		{name: "shard of non-fig3 experiment", mutate: func(o *options) {
			o.shard = "0/2"
			o.journal = "s.jsonl"
			o.experiment = "table8"
		}, wantErr: "cannot be sharded"},

		{name: "fault rate negative", mutate: func(o *options) {
			o.faultRate = -0.1
		}, wantErr: "-fault-rate"},
		{name: "fault rate above one", mutate: func(o *options) {
			o.faultRate = 1.5
		}, wantErr: "-fault-rate"},
		{name: "hang rate negative", mutate: func(o *options) {
			o.hangRate = -0.5
		}, wantErr: "-hang-rate"},
		{name: "hang rate above one", mutate: func(o *options) {
			o.hangRate = 2
		}, wantErr: "-hang-rate"},
		{name: "retries negative", mutate: func(o *options) {
			o.retries = -1
		}, wantErr: "-retries"},
		{name: "workers negative", mutate: func(o *options) {
			o.workers = -3
		}, wantErr: "-workers"},
		{name: "parallelism negative", mutate: func(o *options) {
			o.parallelism = -2
		}, wantErr: "-parallelism"},
		{name: "seeds below one", mutate: func(o *options) {
			o.seeds = 0
		}, wantErr: "-seeds"},
		{name: "datasets negative", mutate: func(o *options) {
			o.datasets = -1
		}, wantErr: "-datasets"},
		{name: "memory negative", mutate: func(o *options) {
			o.memoryGB = -8
		}, wantErr: "-memory-gb"},

		{name: "shard and merge together", mutate: func(o *options) {
			o.shard = "0/2"
			o.journal = "s.jsonl"
			o.merge = "a.jsonl"
		}, wantErr: "mutually exclusive"},
		{name: "coordinator and merge together", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.shardDir = "run"
			o.merge = "a.jsonl"
		}, wantErr: "mutually exclusive"},
		{name: "coordinator without shards", mutate: func(o *options) {
			o.coordinator = true
			o.shardDir = "run"
		}, wantErr: "-shards"},
		{name: "coordinator without dir", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
		}, wantErr: "-shard-dir"},
		{name: "coordinator negative restarts", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.shardDir = "run"
			o.maxRestarts = -1
		}, wantErr: "-max-restarts"},
		{name: "coordinator negative stall probes", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.shardDir = "run"
			o.stallProbes = -1
		}, wantErr: "-shard-stall-probes"},
		{name: "coordinator stall probes without interval", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.shardDir = "run"
			o.stallProbes = 3
			o.stallInterval = 0
		}, wantErr: "-shard-stall-interval"},
		{name: "allow-damage without merge", mutate: func(o *options) {
			o.mergeAllowDamage = true
		}, wantErr: "-merge-allow-damage"},
		{name: "merge of grid-rerunning experiment", mutate: func(o *options) {
			o.merge = "a.jsonl"
			o.experiment = "fig3,table8"
		}, wantErr: "reruns a grid"},
		{name: "unknown experiment", mutate: func(o *options) {
			o.experiment = "fig3,tabel4"
		}, wantErr: "unknown experiment"},
		{name: "trailing comma", mutate: func(o *options) {
			o.experiment = "fig3,"
		}, wantErr: "unknown experiment"},
		{name: "all", mutate: func(o *options) {
			o.experiment = "all"
		}},
		{name: "spaced list", mutate: func(o *options) {
			o.experiment = "fig3, fig4"
		}},

		{name: "repo alone", mutate: func(o *options) {
			o.repoDir = "store"
		}},
		{name: "repo readonly", mutate: func(o *options) {
			o.repoDir = "store"
			o.repoReadonly = true
		}},
		{name: "repo allow damage", mutate: func(o *options) {
			o.repoDir = "store"
			o.repoAllowDamage = true
		}},
		{name: "repo with shard", mutate: func(o *options) {
			o.repoDir = "store"
			o.shard = "0/2"
			o.journal = "s0.jsonl"
		}},
		{name: "simulate ensemble", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
		}},
		{name: "readonly without repo", mutate: func(o *options) {
			o.repoReadonly = true
		}, wantErr: "-repo-readonly"},
		{name: "allow damage without repo", mutate: func(o *options) {
			o.repoAllowDamage = true
		}, wantErr: "-repo-allow-damage"},
		{name: "simulate ensemble without repo", mutate: func(o *options) {
			o.simulateEnsemble = true
		}, wantErr: "-simulate-ensemble needs -repo"},
		{name: "simulate ensemble with merge", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
			o.merge = "a.jsonl"
		}, wantErr: "mutually exclusive"},
		{name: "simulate ensemble with coordinator", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
			o.coordinator = true
			o.shards = 2
			o.shardDir = "run"
		}, wantErr: "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOptions()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted invalid options, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want error containing %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("validate() error spans multiple lines: %q", err)
			}
		})
	}
}

// TestValidateParsesShardSpec checks that a valid -shard value lands in
// the config the grid actually uses.
func TestValidateParsesShardSpec(t *testing.T) {
	o := defaultOptions()
	o.shard = "2/4"
	o.journal = "s2.jsonl"
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	want := bench.ShardSpec{Index: 2, Count: 4}
	if o.shardSpec != want {
		t.Fatalf("shardSpec = %+v, want %+v", o.shardSpec, want)
	}
	cfg, err := gridConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shard != want {
		t.Fatalf("cfg.Shard = %+v, want %+v", cfg.Shard, want)
	}
}

func TestFig3Derived(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "table4", "table6", "table7", "winners", "significance"} {
		if !fig3Derived(id) {
			t.Errorf("fig3Derived(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "table3", "table5", "table8", "table9", "all", ""} {
		if fig3Derived(id) {
			t.Errorf("fig3Derived(%q) = true, want false", id)
		}
	}
}

// TestForwardedArgsParse: a shard child parses exactly the flags the
// coordinator forwards. A forwarded flag the child no longer defines
// would make every shard exit 2 and degrade the whole sweep.
func TestForwardedArgsParse(t *testing.T) {
	o := options{
		seeds: 2, datasets: 5, names: "credit-g,phoneme", quick: true,
		faultRate: 0.25, faultSeed: 11, memoryGB: 0.5, retries: 3,
		workers: 4, parallelism: 2, hangRate: 0.2,
		repoDir: "store", repoReadonly: true, repoAllowDamage: true,
	}
	var got options
	fs := newFlagSet(&got)
	fs.Init("greenbench", flag.ContinueOnError)
	if err := fs.Parse(forwardedArgs(o)); err != nil {
		t.Fatalf("forwarded flags do not parse: %v", err)
	}
	if !reflect.DeepEqual(forwardedArgs(got), forwardedArgs(o)) {
		t.Errorf("forwarded flags did not round-trip:\n got  %q\n want %q", forwardedArgs(got), forwardedArgs(o))
	}
}

// TestProfileFlagsChangeNoOutput runs one -quick fig3 grid with
// -cpuprofile and -memprofile and one without: both profiles must be
// written and non-empty, and the CSV exports must be byte-identical.
func TestProfileFlagsChangeNoOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small grid twice")
	}
	dir := t.TempDir()
	exportCSV := func(name string, extra ...string) []byte {
		t.Helper()
		var o options
		path := filepath.Join(dir, name)
		args := append([]string{"-experiment", "fig3", "-quick", "-names", "credit-g", "-csv", path}, extra...)
		if err := newFlagSet(&o).Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err != nil {
			t.Fatal(err)
		}
		cfg, err := gridConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := profiled(o.cpuProfile, o.memProfile, func() error { return runMode(o, cfg) }); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain := exportCSV("plain.csv")
	withProfiles := exportCSV("profiled.csv", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plain, withProfiles) {
		t.Error("profiling changed the fig3 CSV export")
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", filepath.Base(p), err)
		}
	}
}
