package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"branchlab/internal/experiments"
)

// testEnv shrinks workload b to a small budget so a test repetition
// takes seconds: the same drivers and cache regime, fewer instructions.
func testEnv(t *testing.T, b bench, workers int) repEnv {
	cfg := b.config()
	cfg.Budget, cfg.SliceLen = 60_000, 30_000
	cfg.Workers = workers
	return repEnv{b: b, cfg: cfg, workDir: t.TempDir(), log: t.Logf}
}

// countMetrics are the per-layer metrics that count work rather than
// time it: they must repeat exactly, at any worker count.
var countMetrics = []string{
	"record.minst", "tage.mispreds", "pipeline.cycles", "cache.l1d_misses", "btb.misses",
	"tracecache.misses", "tracecache.slice_hits", "tracecache.evictions", "tracecache.rerecords",
	"tracestore.hdr_hits", "tracestore.slice_hits", "tracestore.writes", "tracestore.rejects",
	"cnn.samples",
}

func TestCountsExact(t *testing.T) {
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			var ref repResult
			var refLayers map[string]float64
			for i, workers := range []int{2, 2, 1} {
				r, layers, err := traced(testEnv(t, b, workers))
				if err != nil {
					t.Fatal(err)
				}
				if r.failed > 0 || r.attempted != len(b.drivers) {
					t.Fatalf("workers=%d: %d/%d drivers failed", workers, r.failed, r.attempted)
				}
				if i == 0 {
					ref, refLayers = r, layers
					checkLayerNames(t, layers)
					continue
				}
				for _, k := range countMetrics {
					if layers[k] != refLayers[k] {
						t.Errorf("workers=%d run %d: %s = %v, first run %v", workers, i, k, layers[k], refLayers[k])
					}
				}
				for id, d := range r.digests {
					if ref.digests[id] != d {
						t.Errorf("workers=%d run %d: %s artifact differs from the first run", workers, i, id)
					}
				}
			}
			if refLayers["tracestore.rejects"] != 0 {
				t.Errorf("tracestore.rejects = %v", refLayers["tracestore.rejects"])
			}
		})
	}
}

// checkLayerNames checks that a traced repetition reports exactly the
// per-layer metrics BENCHMARK.json lists, less the run-level ones.
func checkLayerNames(t *testing.T, layers map[string]float64) {
	t.Helper()
	var got []string
	for k := range layers {
		got = append(got, k)
	}
	got = append(got, "trace_overhead_s", "host.steal_s", "host.invol_csw")
	sort.Strings(got)
	var want []string
	for _, m := range readBenchmarkJSON(t).PerLayer {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("traced metrics\n%v\nBENCHMARK.json per_layer\n%v", got, want)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(benches))
	}
	for i, w := range bj.Workloads {
		if w.Name != benches[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, benches[i].name)
		}
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if got := strings.Join(e2e, " "); got != "setup_s run_s cpu_s peak_rss_mib" {
		t.Errorf("end_to_end = %s", got)
	}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, u)
		}
	}
}

// TestFlippedByteFails shows that an artifact one byte away from its
// golden digest is counted as a failed operation, never passed.
func TestFlippedByteFails(t *testing.T) {
	b := bench{name: "fig9-only", config: experiments.Quick, drivers: []string{"fig9"}, cacheMiB: defaultCacheMiB}
	env := testEnv(t, b, 2)
	r, _ := experiments.ByID("fig9")
	art, err := r.RunErr(env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(art.String())
	digest, _ := checkArtifact(nil, "fig9", good)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 1
	flippedDigest, _ := checkArtifact(nil, "fig9", flipped)

	if _, ok := checkArtifact(map[string]string{"fig9": digest}, "fig9", good); !ok {
		t.Fatal("the artifact fails its own digest")
	}
	if _, ok := checkArtifact(map[string]string{"fig9": digest}, "fig9", flipped); ok {
		t.Error("a flipped byte passed the golden digest")
	}
	if _, ok := checkArtifact(map[string]string{}, "fig9", good); ok {
		t.Error("an artifact without a golden digest passed")
	}

	// The same through a repetition: the driver's real artifact is one
	// byte away from the golden one.
	env.golden = map[string]string{"fig9": flippedDigest}
	rep, err := runRep(env, time.Now(), getUsage(), nil)
	rep.release()
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 1 || rep.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 1 and 1", rep.attempted, rep.failed)
	}
}

func TestSeedShiftsBudget(t *testing.T) {
	for _, b := range benches {
		base := b.config().Budget
		if got := seededConfig(b, 0, 2).Budget; got != base {
			t.Errorf("%s seed 0: budget %d, want %d", b.name, got, base)
		}
		seen := map[uint64]bool{}
		for seed := uint64(1); seed <= 100; seed++ {
			got := seededConfig(b, seed, 2).Budget
			if got <= base || got > base+base/50 {
				t.Errorf("%s seed %d: budget %d outside (%d, %d]", b.name, seed, got, base, base+base/50)
			}
			if seededConfig(b, seed, 2).Budget != got {
				t.Errorf("%s seed %d: budget not a function of the seed", b.name, seed)
			}
			seen[got] = true
		}
		if len(seen) < 90 {
			t.Errorf("%s: 100 seeds gave only %d budgets", b.name, len(seen))
		}
	}
}

func TestTally(t *testing.T) {
	rep := func(failed int, rejects uint64, digests map[string]string) repResult {
		return repResult{attempted: 2, failed: failed, rejects: rejects, digests: digests}
	}
	same := map[string]string{"fig1": "a", "fig9": "b"}
	other := map[string]string{"fig1": "a", "fig9": "c"}
	for _, tc := range []struct {
		name        string
		reps        []repResult
		golden      bool
		failed      int
		wantCorrect bool
	}{
		{"clean", []repResult{rep(0, 0, same), rep(0, 0, same)}, false, 0, true},
		{"driver failed", []repResult{rep(0, 0, same), rep(1, 0, same)}, true, 1, false},
		{"store rejected", []repResult{rep(0, 1, same)}, true, 0, false},
		{"repetitions disagree", []repResult{rep(0, 0, same), rep(0, 0, other)}, false, 1, false},
		// With golden digests each repetition was already checked
		// against them, so a disagreement is not counted twice.
		{"golden checked", []repResult{rep(0, 0, same), rep(1, 0, other)}, true, 1, false},
	} {
		res := tally(tc.reps, tc.golden, t.Logf)
		if res.Attempted != 2*len(tc.reps) || res.Failed != tc.failed || res.Correct != tc.wantCorrect {
			t.Errorf("%s: attempted %d failed %d correct %v; want %d, %d, %v", tc.name,
				res.Attempted, res.Failed, res.Correct, 2*len(tc.reps), tc.failed, tc.wantCorrect)
		}
	}
}
