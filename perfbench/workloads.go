package main

import (
	"fmt"

	"branchlab/internal/experiments"
	"branchlab/internal/workload"
)

// bench is one benchmark workload: a driver set run at one
// configuration under one trace-cache regime.
type bench struct {
	name    string
	config  func() experiments.Config
	drivers []string // experiment IDs, in experiments.All() order
	// cacheMiB caps the trace cache the drivers run against.
	cacheMiB int64
	// reps is how many repetitions a timed run makes. It is fixed per
	// workload, not left to the clock: a process's first repetition is
	// slower than later ones, so a count that varied from run to run
	// would move the medians.
	reps int
	// warmStore fills a fresh persistent store in set-up and serves the
	// drivers from it through a fresh cache, instead of from the cache
	// set-up recorded into.
	warmStore bool
}

// ipcDrivers are the drivers whose work is the pipeline timing model.
var ipcDrivers = map[string]bool{"fig1": true, "fig5": true, "fig7": true, "fig8": true}

func driverIDs(keep func(id string) bool) []string {
	var ids []string
	for _, r := range experiments.All() {
		if keep(r.ID) {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// defaultCacheMiB is cmd/experiments' default -tracecache size.
const defaultCacheMiB = 4096

// benches lists the workloads. Why each exists is in README.md.
var benches = []bench{
	{
		// The north star: `cmd/experiments -run all -quick`. The
		// pipeline timing model does most of the work.
		name:     "registry-quick",
		config:   experiments.Quick,
		drivers:  driverIDs(func(string) bool { return true }),
		cacheMiB: defaultCacheMiB,
		reps:     2,
	},
	{
		// Every non-pipeline driver at the full budget: recording,
		// replay, TAGE, the analysis observers and CNN training, with
		// no pipeline work at all.
		name:     "characterize",
		config:   experiments.Default,
		drivers:  driverIDs(func(id string) bool { return !ipcDrivers[id] }),
		cacheMiB: defaultCacheMiB,
		reps:     1,
	},
	{
		// The pipeline drivers under the CI determinism matrix's 8 MiB
		// cap over a warm store: evictions refill by store promotion,
		// and nothing is recorded while the drivers run.
		name:      "ipc-capped",
		config:    experiments.Quick,
		drivers:   driverIDs(func(id string) bool { return ipcDrivers[id] }),
		cacheMiB:  8,
		warmStore: true,
		reps:      2,
	},
}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// seededConfig returns the workload's configuration for seed. Seed 0 is
// the canonical configuration, whose artifacts have golden digests. Any
// other seed shifts the instruction budget up by a seeded offset of at
// most 2%, which moves every trace end and slice boundary, so a seed
// held out while a change was written gives inputs the change never
// saw, while the work per run stays within 2% of the canonical one.
func seededConfig(b bench, seed uint64, workers int) experiments.Config {
	cfg := b.config()
	if seed != 0 {
		cfg.Budget += 1 + splitmix64(seed)%(cfg.Budget/50)
	}
	cfg.Workers = workers
	return cfg
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceKey names one recording a driver requests.
type traceKey struct {
	spec  *workload.Spec
	input int
}

// cnnSpecs are the workloads the cnn driver trains helpers for; it
// records inputs 0 and 1 for training and input 2 for evaluation.
var cnnSpecs = map[string]bool{"605.mcf_s": true, "657.xz_s": true, "641.leela_s": true}

// traceKeys lists every (workload, input) trace the drivers record, so
// set-up can acquire them all before the first driver runs. It mirrors
// the drivers' RecordTrace calls: table1 records the first MaxInputs
// inputs of each SPECint-like workload, cnn records inputs 0-2 of its
// three workloads, and every other driver records input 0. A driver
// that starts recording something else shows up as tracecache.misses
// above 0 in the traced run.
func traceKeys(cfg experiments.Config, drivers []string) []traceKey {
	has := map[string]bool{}
	for _, id := range drivers {
		has[id] = true
	}
	var keys []traceKey
	for _, s := range workload.SPECint2017Like() {
		n := 1
		if has["table1"] {
			n = max(n, min(s.NumInputs, cfg.MaxInputs))
		}
		if has["cnn"] && cnnSpecs[s.Name] {
			n = max(n, min(s.NumInputs, 3))
		}
		for in := 0; in < n; in++ {
			keys = append(keys, traceKey{s, in})
		}
	}
	for _, s := range workload.LCFLike() {
		keys = append(keys, traceKey{s, 0})
	}
	return keys
}
