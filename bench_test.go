package branchlab_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"branchlab"
	"branchlab/internal/core"
	"branchlab/internal/experiments"
	"branchlab/internal/pipeline"
	"branchlab/internal/program"
	"branchlab/internal/report"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
)

// One benchmark per table and figure of the paper. Each iteration
// regenerates the artifact end to end (workload synthesis, prediction,
// screening, pipeline timing) at the Quick configuration; run
// cmd/experiments for the full-budget versions recorded in
// EXPERIMENTS.md.

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not found", id)
	}
	cfg := experiments.Quick()
	var sink *report.Artifact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = r.Run(cfg)
	}
	if sink == nil || sink.ID != id {
		b.Fatal("experiment produced no artifact")
	}
}

func BenchmarkFig1(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkAllocStats(b *testing.B) { benchExperiment(b, "alloc") }
func BenchmarkCNNHelper(b *testing.B)  { benchExperiment(b, "cnn") }
func BenchmarkPhaseCond(b *testing.B)  { benchExperiment(b, "phasecond") }

// BenchmarkFig5Parallel contrasts the engine at 1 worker against
// NumCPU workers on the heaviest IPC sweep; the ratio of the two
// timings is the engine speedup recorded in EXPERIMENTS.md.
func BenchmarkFig5Parallel(b *testing.B) {
	r, ok := experiments.ByID("fig5")
	if !ok {
		b.Fatal("fig5 not found")
	}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Quick()
			cfg.Workers = workers
			var sink *report.Artifact
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = r.Run(cfg)
			}
			if sink == nil || sink.ID != "fig5" {
				b.Fatal("experiment produced no artifact")
			}
		})
	}
}

// BenchmarkRunAll is the `cmd/experiments -run all` hot path: every
// driver in the registry, end to end, with the shared trace cache off
// and on. The cache=off/cache=on ratio is the invocation-level speedup
// from recording each (workload, input) trace once instead of once per
// driver; scripts/bench.sh records both in the BENCH JSON.
//
// With BRANCHLAB_TRACESTORE set (scripts/bench.sh passes it through),
// cache=on attaches the persistent store at that directory: after the
// first iteration populates it, every fresh cache restores its traces
// from disk instead of recording, so the reps measure replay — the
// steady state a CI warm cache provides — and the sub-benchmark
// reports the store hit rate alongside ns/op.
func BenchmarkRunAll(b *testing.B) {
	storeDir := os.Getenv("BRANCHLAB_TRACESTORE")
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			var store *tracestore.Store
			if cached && storeDir != "" {
				var err error
				store, err = tracestore.Open(storeDir, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer store.Close()
			}
			var sink *report.Artifact
			for i := 0; i < b.N; i++ {
				cfg := experiments.Quick()
				if cached {
					cfg.Cache = tracecache.New(0)
					cfg.Cache.SetStore(store)
				}
				for _, r := range experiments.All() {
					sink = r.Run(cfg)
				}
			}
			if sink == nil {
				b.Fatal("experiments produced no artifact")
			}
			if store != nil {
				st := store.Stats()
				hits := st.HeaderHits + st.SliceHits
				if total := hits + st.HeaderMisses + st.SliceMisses; total > 0 {
					b.ReportMetric(float64(hits)/float64(total), "store-hit-rate")
				}
			}
		})
	}
}

// BenchmarkCoreRun isolates the core.Run replay loop: the no-observer
// fast path (pure MPKI measurement) against the fan-out path with a
// collector attached, plus the pre-PR3 per-instruction reference loop
// — the block-vs-per-instruction contrast recorded in EXPERIMENTS.md.
// All replay the same recorded trace through TAGE-SC-L 8KB.
func BenchmarkCoreRun(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	tr := branchlab.RecordTrace(spec, 0, 500_000)
	b.Run("observers=off", func(b *testing.B) {
		b.SetBytes(500_000)
		for i := 0; i < b.N; i++ {
			branchlab.Run(tr.Stream(), branchlab.NewTAGESCL(8))
		}
	})
	b.Run("observers=on", func(b *testing.B) {
		b.SetBytes(500_000)
		for i := 0; i < b.N; i++ {
			branchlab.Run(tr.Stream(), branchlab.NewTAGESCL(8), branchlab.NewCollector(125_000))
		}
	})
	b.Run("perinst-reference", func(b *testing.B) {
		b.SetBytes(500_000)
		for i := 0; i < b.N; i++ {
			runPerInstReference(tr.Stream(), branchlab.NewTAGESCL(8))
		}
	})
}

// targetTrainerRef / branchObserverRef mirror the optional predictor
// interfaces the measurement loop resolves, for the reference loop.
type targetTrainerRef interface {
	TrainWithTarget(ip, target uint64, taken, pred bool)
}
type branchObserverRef interface {
	ObserveBranch(ip, target uint64, kind branchlab.Kind, taken bool)
}

// runPerInstReference is the pre-block measurement loop — one
// Stream.Next virtual call and one 40-byte copy per instruction —
// kept as the benchmark baseline the block pipeline is measured
// against.
func runPerInstReference(s branchlab.Stream, p branchlab.Predictor) branchlab.RunStats {
	tt, _ := p.(targetTrainerRef)
	bo, _ := p.(branchObserverRef)
	var st branchlab.RunStats
	var inst branchlab.Inst
	for s.Next(&inst) {
		if inst.IsCondBranch() {
			st.CondExecs++
			pred := p.Predict(inst.IP)
			if pred != inst.Taken {
				st.Mispreds++
			}
			if tt != nil {
				tt.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pred)
			} else {
				p.Train(inst.IP, inst.Taken, pred)
			}
		} else if inst.IsBranch() {
			if bo != nil {
				bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}
		st.Insts++
	}
	return st
}

// BenchmarkTAGEPredictTrain isolates the TAGE-SC-L engine itself — no
// measurement loop, no stream dispatch: the branch events of a recorded
// trace are extracted once and replayed straight through the predict/
// train/observe calls. The packed sub-benchmark is the bit-packed
// struct-of-arrays engine, tage-reference the scalar array-of-structs
// engine it replaced (mirroring BenchmarkCoreRun's perinst-reference
// pattern); their ratio is the engine-level win recorded in
// EXPERIMENTS.md. MB/s reads as M branch events/s.
func BenchmarkTAGEPredictTrain(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	tr := branchlab.RecordTrace(spec, 0, 500_000)
	var events []branchlab.Inst
	var inst branchlab.Inst
	s := tr.Stream()
	for s.Next(&inst) {
		if inst.IsBranch() {
			events = append(events, inst)
		}
	}
	for _, e := range []struct {
		name string
		mk   func() branchlab.Predictor
	}{
		{"packed", func() branchlab.Predictor { return tage.New(tage.Config8KB()) }},
		{"tage-reference", func() branchlab.Predictor { return tage.NewReference(tage.Config8KB()) }},
	} {
		b.Run(e.name, func(b *testing.B) {
			p := e.mk()
			tt := p.(targetTrainerRef)
			bo := p.(branchObserverRef)
			b.SetBytes(int64(len(events)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range events {
					ev := &events[j]
					if ev.IsCondBranch() {
						pred := p.Predict(ev.IP)
						tt.TrainWithTarget(ev.IP, ev.Target, ev.Taken, pred)
					} else {
						bo.ObserveBranch(ev.IP, ev.Target, ev.Kind, ev.Taken)
					}
				}
			}
		})
	}
}

// pipelineBenchTrace is the trace the pipeline-layer benchmarks share:
// the first 300k instructions of 605.mcf_s input 0.
func pipelineBenchTrace(b *testing.B) *trace.Buffer {
	b.Helper()
	spec, ok := workload.ByName("605.mcf_s")
	if !ok {
		b.Fatal("605.mcf_s not found")
	}
	return spec.Record(0, 300_000)
}

// BenchmarkPipelineAnnotate, BenchmarkPipelinePredict and
// BenchmarkPipelineTime time the layered pipeline model's three stages
// on one trace (DESIGN.md §12): the cache/BTB annotation, the
// TAGE-SC-L 8KB misprediction map, and the 1x timing recurrence over
// both. A scale sweep pays the first two once per trace and the third
// once per cell. MB/s reads as M instructions/s.
func BenchmarkPipelineAnnotate(b *testing.B) {
	tr := pipelineBenchTrace(b)
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Annotate(pipeline.Skylake(), tr)
	}
}

func BenchmarkPipelinePredict(b *testing.B) {
	tr := pipelineBenchTrace(b)
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunMispredicts(tr.BlockStream(0), tage.New(tage.Config8KB()))
	}
}

func BenchmarkPipelineTime(b *testing.B) {
	tr := pipelineBenchTrace(b)
	a := pipeline.Annotate(pipeline.Skylake(), tr)
	miss := core.RunMispredicts(tr.BlockStream(0), tage.New(tage.Config8KB()))
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Time(pipeline.Skylake(), tr, a, miss)
	}
}

// BenchmarkPipelineSweep is one trace's share of an IPC figure: three
// pipeline scales under four regimes (TAGE-SC-L 8KB, perfect H2Ps,
// perfect beyond an execution count, perfect prediction). The layered
// sub-benchmark annotates and predicts once and times each cell; the
// reference sub-benchmark runs the fused pipeline.Reference model per
// cell, as the IPC drivers did before the layering. Their ratio is the
// same-run gate in scripts/bench.sh.
func BenchmarkPipelineSweep(b *testing.B) {
	tr := pipelineBenchTrace(b)
	col := core.NewCollector(100_000)
	core.Run(tr.Stream(), tage.New(tage.Config8KB()), col)
	h2ps := core.PaperCriteria().Scaled(100_000).Screen(col).Set()
	regimes := []func() pipeline.Options{
		func() pipeline.Options { return pipeline.Options{Predictor: tage.New(tage.Config8KB())} },
		func() pipeline.Options {
			return pipeline.Options{Predictor: tage.New(tage.Config8KB()), PerfectIPs: h2ps}
		},
		func() pipeline.Options {
			return pipeline.Options{Predictor: tage.New(tage.Config8KB()), MinExecsPerfect: 10}
		},
		func() pipeline.Options { return pipeline.Options{PerfectBP: true} },
	}
	scales := []int{1, 4, 16}
	b.Run("layered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := pipeline.Annotate(pipeline.Skylake(), tr)
			miss := core.RunMispredicts(tr.BlockStream(0), tage.New(tage.Config8KB()))
			for _, opt := range regimes {
				m := pipeline.Oracle(tr, miss, opt())
				for _, k := range scales {
					pipeline.Time(pipeline.Skylake().Scaled(k), tr, a, m)
				}
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, opt := range regimes {
				for _, k := range scales {
					pipeline.Reference(pipeline.Skylake().Scaled(k), tr.Stream(), opt())
				}
			}
		}
	})
}

// BenchmarkRecordSharded contrasts sequential trace recording with
// sharded generation at NumCPU workers: on a multi-core host the
// materialization path overlaps across shards; on one core the two
// coincide (sharding costs prefix regeneration but saves the channel
// handoff).
func BenchmarkRecordSharded(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(500_000)
			pool := branchlab.NewEnginePool(shards)
			for i := 0; i < b.N; i++ {
				branchlab.RecordTraceSharded(spec, 0, 500_000, pool, shards)
			}
		})
	}
}

// BenchmarkTraceCacheHit measures the cache's serve-from-memory cost
// (lock, header lookup, view construction) against the recording it
// avoids.
func BenchmarkTraceCacheHit(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	cache := branchlab.NewTraceCache(0)
	branchlab.RecordTraceCached(cache, spec, 0, 500_000) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branchlab.RecordTraceCached(cache, spec, 0, 500_000)
	}
}

// BenchmarkTraceCacheSlicedReplay measures a full replay through the
// slice-granular cache in its two regimes: resident (unbounded cap —
// the slice pin cost over zero-copy block serving, the common case) and
// evicted (a cap of one slice, so every slice re-materializes through
// the deterministic skim path — the worst case the LRU converts misses
// into). The resident/evicted ratio is the price of a cap miss; the
// resident number must track BenchmarkCoreRun/observers=off, since a
// resident replay is the same block loop plus one pin per slice. The
// evicted run reports peak accounted residency, which must stay below
// one whole-trace footprint (the memory bound slice eviction exists to
// provide).
func BenchmarkTraceCacheSlicedReplay(b *testing.B) {
	const budget = 500_000
	const sliceInsts = 1 << 16
	spec, _ := branchlab.Workload("605.mcf_s")
	for _, tc := range []struct {
		name string
		cap  int64
	}{
		{"resident", 0},
		{"evicted", sliceInsts * 40}, // one slice's bytes (Inst is 40B)
	} {
		b.Run(tc.name, func(b *testing.B) {
			cache := branchlab.NewSlicedTraceCache(tc.cap, sliceInsts)
			tr := branchlab.RecordTraceCached(cache, spec, 0, budget)
			b.SetBytes(budget)
			b.ResetTimer()
			var peak int64
			for i := 0; i < b.N; i++ {
				branchlab.Run(tr.Stream(), branchlab.NewTAGESCL(8))
				if st := cache.Stats(); st.BytesInUse > peak {
					peak = st.BytesInUse
				}
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-resident-MiB")
		})
	}
}

// BenchmarkEvictedRefill measures the trace cache's evicted-slice
// refill in its two regimes: the skim path (regenerate the whole
// prefix, then the window — O(prefix + window)) against the checkpoint
// path (resume from the nearest stored checkpoint — O(window)), for a
// window near the front of the trace and one at its end. The contract
// under test is position independence: ckpt/first and ckpt/last must
// coincide while skim/last scales with the trace length — the refill
// asymmetry that capped how aggressively the slice cache could evict.
// The skim/ckpt ratio at pos=last is recorded in EXPERIMENTS.md and
// BENCH_PR5.json.
func BenchmarkEvictedRefill(b *testing.B) {
	const budget = 2_000_000
	const window = 1 << 15
	spec, _ := branchlab.Workload("605.mcf_s")
	// One checkpointed recording, as the cache performs on a miss; the
	// header's checkpoint list is what the refills below resume from.
	_, cks := spec.RecordSlices(0, budget, window, nil, 1, window)
	if len(cks) == 0 {
		b.Fatal("workload captured no checkpoints")
	}
	for _, pos := range []struct {
		name string
		lo   uint64
	}{
		// Captures land at the first safe point after each multiple of
		// the spacing, so the earliest window with a checkpoint at or
		// below it starts at 2*window; lo = window would find none and
		// both modes would skim.
		{"first", 2 * window},
		{"last", budget - window},
	} {
		for _, mode := range []string{"skim", "ckpt"} {
			b.Run(fmt.Sprintf("mode=%s/pos=%s", mode, pos.name), func(b *testing.B) {
				b.SetBytes(window)
				for i := 0; i < b.N; i++ {
					var got []branchlab.Inst
					if mode == "skim" {
						got = spec.RecordRange(0, budget, pos.lo, pos.lo+window)
					} else {
						ck := program.NearestCheckpoint(cks, pos.lo)
						var err error
						got, err = spec.RecordRangeFrom(0, budget, ck, pos.lo, pos.lo+window)
						if err != nil {
							b.Fatal(err)
						}
					}
					if uint64(len(got)) != window {
						b.Fatalf("refill returned %d insts, want %d", len(got), window)
					}
				}
			})
		}
	}
}

// --- ablations: the design choices DESIGN.md calls out -----------------

// BenchmarkAblationHistoryLengths reports TAGE accuracy as the number of
// tagged tables varies, isolating the value of the geometric history
// series.
func BenchmarkAblationHistoryLengths(b *testing.B) {
	spec, _ := branchlab.Workload("641.leela_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, tables := range []int{2, 6, 10} {
		b.Run(byTables(tables), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.NumTables = tables
				st := branchlab.Run(tr.Stream(), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

func byTables(n int) string {
	return map[int]string{2: "tables=2", 6: "tables=6", 10: "tables=10"}[n]
}

// BenchmarkAblationSC isolates the statistical corrector's contribution.
func BenchmarkAblationSC(b *testing.B) {
	spec, _ := branchlab.Workload("657.xz_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, useSC := range []bool{false, true} {
		name := "sc=off"
		if useSC {
			name = "sc=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.UseSC = useSC
				st := branchlab.Run(tr.Stream(), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkAblationLoop isolates the loop predictor's contribution.
func BenchmarkAblationLoop(b *testing.B) {
	spec, _ := branchlab.Workload("623.xalancbmk_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, useLoop := range []bool{false, true} {
		name := "loop=off"
		if useLoop {
			name = "loop=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.UseLoop = useLoop
				st := branchlab.Run(tr.Stream(), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkPredictorZoo is the CBP-style comparison: every baseline
// predictor over the same trace, accuracy reported as a metric.
func BenchmarkPredictorZoo(b *testing.B) {
	spec, _ := branchlab.Workload("631.deepsjeng_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, name := range []string{
		"static-taken", "bimodal", "gshare", "local", "perceptron", "ppm",
		"tournament", "tage-sc-l-8", "tage-sc-l-64",
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := branchlab.NewPredictor(name)
				if err != nil {
					b.Fatal(err)
				}
				st := branchlab.Run(tr.Stream(), p)
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkPipelineScalePerfectBP sanity-checks the timing model: IPC
// must grow monotonically with pipeline scale under perfect prediction.
func BenchmarkPipelineScalePerfectBP(b *testing.B) {
	spec, _ := branchlab.Workload("600.perlbench_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, scale := range []int{1, 4, 16} {
		b.Run(byScale(scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := branchlab.SimulateIPC(tr.Stream(),
					branchlab.SkylakeConfig().Scaled(scale),
					branchlab.PipelineOptions{PerfectBP: true})
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

func byScale(k int) string {
	return map[int]string{1: "scale=1x", 4: "scale=4x", 16: "scale=16x"}[k]
}

// BenchmarkSimulationThroughput measures raw simulator speed
// (instructions per second through TAGE-SC-L 8KB + collector).
func BenchmarkSimulationThroughput(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	tr := branchlab.RecordTrace(spec, 0, 500_000)
	b.SetBytes(500_000) // one "byte" per instruction: MB/s == M instrs/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branchlab.Run(tr.Stream(), branchlab.NewTAGESCL(8))
	}
}
