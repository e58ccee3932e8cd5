package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/experiments"
	"branchlab/internal/tracestore"
)

// repEnv is what every repetition of one run shares.
type repEnv struct {
	b       bench
	cfg     experiments.Config
	golden  map[string]string // driver ID -> artifact digest; nil for non-canonical seeds
	workDir string            // where warm-store repetitions keep their store
	log     func(format string, args ...any)
}

// repResult is one repetition: set-up, then every driver in order with
// its artifact verified.
type repResult struct {
	setup, run float64 // seconds
	cpu        float64 // process CPU seconds over the repetition
	attempted  int
	failed     int
	digests    map[string]string
	rejects    uint64 // store files that failed verification

	// Traced repetitions only.
	spans  []span
	layers map[string]float64

	// cfg still holds the repetition's cache (and store) until
	// release, so probes can read the same traces the drivers did.
	cfg          experiments.Config
	releaseSetUp func()
}

// release closes the repetition's store and drops its cache, so the
// next collection can reclaim the traces.
func (r *repResult) release() {
	if r.releaseSetUp != nil {
		r.releaseSetUp()
	}
	r.cfg = experiments.Config{}
}

// runRep runs one repetition. start is when its set-up began (process
// start for the first repetition) and u0 the resource use at that
// moment. With tr nil nothing is traced.
func runRep(env repEnv, start time.Time, u0 usage, tr *tracer) (res repResult, err error) {
	b := env.b
	res.digests = make(map[string]string, len(b.drivers))
	var gc0 [2]float64
	if tr != nil {
		gc0 = goCounters()
	}
	root := tr.begin("rep", -1)

	// --- Set-up.
	setupID := tr.begin("setup", root)
	cfg, fillStats, releaseSetUp, err := setUp(env, tr, setupID)
	res.releaseSetUp = releaseSetUp
	if err != nil {
		return res, err
	}
	res.cfg = cfg
	tr.end(setupID, 0)
	runStart := time.Now()
	res.setup = runStart.Sub(start).Seconds()

	// --- Run: every driver, each artifact checked as it is produced.
	runID := tr.begin("run", root)
	cache0 := cfg.Cache.Stats()
	store0 := storeStats(cfg.Store)
	for _, id := range b.drivers {
		r, _ := experiments.ByID(id)
		sid := tr.begin("experiments."+id, runID)
		var cpu0 float64
		if tr != nil {
			cpu0 = getUsage().cpu
		}
		art, err := r.RunErr(cfg)
		if tr != nil {
			tr.setCPU(sid, getUsage().cpu-cpu0)
		}
		tr.end(sid, 0)
		res.attempted++
		if err != nil {
			res.failed++
			env.log("%s: %v", id, err)
			continue
		}
		digest, ok := checkArtifact(env.golden, id, []byte(art.String()))
		res.digests[id] = digest
		if !ok {
			res.failed++
			env.log("%s: artifact digest %s, golden %s", id, digest, env.golden[id])
		}
	}
	tr.end(runID, 0)
	res.run = time.Since(runStart).Seconds()
	res.cpu = getUsage().cpu - u0.cpu
	tr.end(root, 0)

	cacheRun := cfg.Cache.Stats()
	storeRun := storeStats(cfg.Store)
	res.rejects = fillStats.Rejects + storeRun.Rejects
	if tr == nil {
		return res, nil
	}

	// --- Per-layer metrics of the traced repetition.
	gc1 := goCounters()
	res.spans = tr.finish()
	l := map[string]float64{}
	var driverWall, driverCPU float64
	for _, r := range experiments.All() {
		l["experiments."+r.ID+".s"] = 0
	}
	for _, s := range res.spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			l[s.Name+".s"] = s.End - s.Start
			driverWall += s.End - s.Start
			driverCPU += s.CPU
		}
	}
	l["engine.utilization"] = driverCPU / (driverWall * float64(cfg.Workers))
	recS, recInsts := sumSpans(res.spans, "record")
	l["record.s"] = recS
	l["record.minst"] = float64(recInsts) / 1e6
	l["record.mips"] = float64(recInsts) / 1e6 / recS

	d := func(a, b uint64) float64 { return float64(a - b) }
	l["tracecache.misses"] = d(cacheRun.Misses, cache0.Misses)
	l["tracecache.slice_hits"] = d(cacheRun.SliceHits, cache0.SliceHits)
	l["tracecache.evictions"] = d(cacheRun.SliceEvictions, cache0.SliceEvictions)
	l["tracecache.rerecords"] = d(cacheRun.SliceRerecords, cache0.SliceRerecords)
	memoHits := d(cacheRun.MemoHits, cache0.MemoHits)
	memoAll := memoHits + d(cacheRun.MemoMisses, cache0.MemoMisses)
	l["tracecache.memo_hit_ratio"] = 0
	if memoAll > 0 {
		l["tracecache.memo_hit_ratio"] = memoHits / memoAll
	}
	l["tracecache.resident_mib"] = float64(cacheRun.BytesInUse) / (1 << 20)

	l["tracestore.hdr_hits"] = d(storeRun.HeaderHits, store0.HeaderHits)
	l["tracestore.slice_hits"] = d(storeRun.SliceHits, store0.SliceHits)
	l["tracestore.writes"] = float64(fillStats.HeaderWrites + fillStats.SliceWrites +
		storeRun.HeaderWrites + storeRun.SliceWrites)
	l["tracestore.rejects"] = float64(res.rejects)

	l["go.gc_cpu_s"] = gc1[0] - gc0[0]
	l["go.alloc_gib"] = (gc1[1] - gc0[1]) / (1 << 30)
	res.layers = l
	return res, nil
}

// setUp constructs the repetition's trace cache (and store) and
// acquires every trace the drivers will request. It returns the
// configuration the drivers run with, the filling store's counters
// for a warm-store workload, and a func releasing the store.
func setUp(env repEnv, tr *tracer, parent int) (cfg experiments.Config, fillStats tracestore.Stats, release func(), err error) {
	cfg, release = env.cfg, func() {}
	keys := traceKeys(cfg, env.b.drivers)
	if !env.b.warmStore {
		cfg.Cache = cfg.NewCache(env.b.cacheMiB << 20)
		return cfg, fillStats, release, record(cfg, keys, tr, parent)
	}
	dir, err := os.MkdirTemp(env.workDir, "store-")
	if err != nil {
		return cfg, fillStats, release, fmt.Errorf("store dir: %w", err)
	}
	release = func() { os.RemoveAll(dir) }
	fill, err := tracestore.Open(dir, 0)
	if err != nil {
		return cfg, fillStats, release, err
	}
	cfg.Store = fill
	cfg.Cache = cfg.NewCache(defaultCacheMiB << 20)
	err = record(cfg, keys, tr, parent)
	fillStats = fill.Stats()
	if cerr := fill.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return cfg, fillStats, release, err
	}
	// The drivers see only what the store holds, through a fresh
	// cache, as a fresh process reopening the store would: the filling
	// cache is dropped and its heap returned first, so the run's
	// resident set does not depend on when the collector reclaims it.
	cfg.Cache, cfg.Store = nil, nil
	freeMemory()
	served, err := tracestore.Open(dir, 0)
	if err != nil {
		return cfg, fillStats, release, err
	}
	cfg.Store = served
	cfg.Cache = cfg.NewCache(env.b.cacheMiB << 20)
	release = func() {
		served.Close()
		os.RemoveAll(dir)
	}
	return cfg, fillStats, release, nil
}

// checkArtifact digests a driver's artifact bytes and reports whether
// they match the golden digest. Without golden digests (a
// non-canonical seed) every artifact passes here; the run instead
// checks that its repetitions agree.
func checkArtifact(golden map[string]string, id string, art []byte) (digest string, ok bool) {
	sum := sha256.Sum256(art)
	digest = hex.EncodeToString(sum[:])
	return digest, golden == nil || golden[id] == digest
}

// record acquires every trace in keys through cfg.RecordTrace on the
// configuration's engine pool, one span per recording.
func record(cfg experiments.Config, keys []traceKey, tr *tracer, parent int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = engine.Recovered(r); err == nil {
				panic(r)
			}
			err = fmt.Errorf("set-up recording: %w", err)
		}
	}()
	engine.MapSlice(cfg.Pool(), keys, func(k traceKey, _ int) struct{} {
		id := tr.begin("record", parent)
		t := cfg.RecordTrace(k.spec, k.input)
		tr.end(id, uint64(t.Len()))
		return struct{}{}
	})
	return nil
}

func storeStats(s *tracestore.Store) tracestore.Stats {
	if s == nil {
		return tracestore.Stats{}
	}
	return s.Stats()
}

// goCounters reads the Go runtime's cumulative GC CPU seconds and
// bytes allocated.
func goCounters() [2]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	return [2]float64{samples[0].Value.Float64(), float64(samples[1].Value.Uint64())}
}
