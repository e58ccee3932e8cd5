// Command perfbench is branchlab's end-to-end benchmark. It runs one
// workload (a set of experiment drivers at one configuration and trace
// cache regime, see workloads.go and README.md), checks every artifact
// against its golden digest, and prints the metrics as the last line of
// standard output:
//
//	perfbench -workload registry-quick -seed 0 -seconds 10 -trace 0
//
// With -trace 0 it repeats set-up and run the workload's fixed number
// of times (and on until -seconds have passed) and reports the
// end-to-end metrics; with -trace 1 it runs a warm-up repetition, a
// traced one followed by each layer's probe, and an untraced one, and
// reports the per-layer metrics. -golden prints the digests golden.json holds.
//
// It expects to run from the root of a branchlab checkout and keeps its
// scratch files under .bench_build/perfbench there.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// workDir holds a run's trace store and span dumps, relative to the
// checkout root.
const workDir = ".bench_build/perfbench"

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: registry-quick, characterize or ipc-capped")
	seed := fs.Uint64("seed", 0, "workload seed (0 = canonical configuration, checked against golden digests)")
	seconds := fs.Int("seconds", 10, "measure for at least this long, repeating set-up and run")
	traced := fs.Int("trace", 0, "1 = one traced run reporting per-layer metrics")
	golden := fs.Bool("golden", false, "print every workload's artifact digests at seed 0 as JSON (golden.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...) }
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	workers := runtime.NumCPU()
	if *golden {
		return printGolden(workers, stdout, logf)
	}
	b, err := benchByName(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds < 1 {
		logf("-trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	env := repEnv{b: b, cfg: seededConfig(b, *seed, workers), workDir: workDir, log: logf}
	if *seed == 0 {
		var all map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &all); err != nil || all[b.name] == nil {
			logf("golden.json holds no digests for %s: %v", b.name, err)
			return 1
		}
		env.golden = all[b.name]
	} else {
		logf("seed %d: budget %d, no golden digests; repetitions must agree", *seed, env.cfg.Budget)
	}
	steal0, stealOK := stealSeconds()

	var metrics map[string]float64
	var reps []repResult
	if *traced == 1 {
		metrics, reps, err = tracedRun(env, start)
	} else {
		metrics, reps, err = timedRun(env, start, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	res := tally(reps, env.golden != nil, logf)
	if env.golden == nil {
		printDigests(stdout, reps[0].digests)
	}

	// Host noise: a run that shared its CPUs shows steal time or
	// involuntary switches well above its neighbours'.
	steal, stealText := 0.0, "unavailable"
	if steal1, ok := stealSeconds(); ok && stealOK {
		steal = steal1 - steal0
		stealText = fmt.Sprintf("%.2f", steal)
	}
	nivcsw := getUsage().nivcsw
	fmt.Fprintf(stdout, "host-noise: steal_s=%s invol_csw=%d reps=%d\n", stealText, nivcsw, len(reps))
	if *traced == 1 {
		metrics["host.steal_s"] = steal
		metrics["host.invol_csw"] = float64(nivcsw)
	}
	for k, v := range metrics {
		res.Metrics[k] = metric{v, unitOf(k)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// tally counts a run's operations and failures and decides whether
// its outputs are correct: no driver failed, no stored trace file was
// rejected, and, without golden digests, every repetition produced the
// same artifacts as the first (a disagreeing artifact is one more
// failed operation).
func tally(reps []repResult, golden bool, logf func(string, ...any)) result {
	res := result{Metrics: map[string]metric{}}
	rejected := false
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.rejects > 0 {
			logf("%d trace store files failed verification", r.rejects)
			rejected = true
		}
	}
	if !golden {
		for _, r := range reps[1:] {
			for id, d := range r.digests {
				if reps[0].digests[id] != d {
					logf("%s: artifact differs between repetitions", id)
					res.Failed++
				}
			}
		}
	}
	res.Correct = res.Failed == 0 && !rejected
	return res
}

// minSetups is how many set-ups a timed run measures at least; runs
// with fewer repetitions set up alone to make up the number, so set-up
// time is a median even where one repetition fills the run.
const minSetups = 3

// timedRun repeats set-up and run the workload's number of times, and
// on until d has passed since start, and reports the end-to-end
// metrics: the median repetition's times, and the peak resident set of
// the first repetition, which is the process's high-water mark as a
// single cmd/experiments invocation would reach it. (Later repetitions
// start from a heap the garbage collector has already sized, so their
// peaks scatter.)
func timedRun(env repEnv, start time.Time, d time.Duration) (map[string]float64, []repResult, error) {
	var reps []repResult
	var setups []float64
	var peakRSS float64
	repStart, u0 := start, usage{}
	for {
		r, err := runRep(env, repStart, u0, nil)
		r.release()
		if err != nil {
			return nil, nil, err
		}
		env.log("rep %d: setup %.3fs run %.3fs cpu %.3fs, %d/%d drivers failed",
			len(reps)+1, r.setup, r.run, r.cpu, r.failed, r.attempted)
		if reps == nil {
			peakRSS = getUsage().maxRSS
		}
		reps = append(reps, r)
		setups = append(setups, r.setup)
		freeMemory()
		if len(reps) >= env.b.reps && time.Since(start) >= d {
			break
		}
		repStart, u0 = time.Now(), getUsage()
	}
	for len(setups) < minSetups {
		t0 := time.Now()
		_, _, release, err := setUp(env, nil, -1)
		setups = append(setups, time.Since(t0).Seconds())
		release()
		if err != nil {
			return nil, nil, err
		}
		freeMemory()
	}
	var runs, cpus []float64
	for _, r := range reps {
		runs = append(runs, r.run)
		cpus = append(cpus, r.cpu)
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"run_s":        median(runs),
		"cpu_s":        median(cpus),
		"peak_rss_mib": peakRSS,
	}, reps, nil
}

// tracedRun runs the workload untraced, traced with the layer probes,
// and untraced again, and reports the per-layer metrics. The first
// repetition warms the process, so the trace overhead compares the
// two later ones. The span tree is written under the work directory.
func tracedRun(env repEnv, start time.Time) (map[string]float64, []repResult, error) {
	untraced := func(start time.Time, u0 usage) (repResult, error) {
		r, err := runRep(env, start, u0, nil)
		r.release()
		freeMemory()
		return r, err
	}
	warm, err := untraced(start, usage{})
	if err != nil {
		return nil, nil, err
	}
	r, layers, err := traced(env)
	if err != nil {
		return nil, nil, err
	}
	base, err := untraced(time.Now(), getUsage())
	if err != nil {
		return nil, nil, err
	}
	reps := []repResult{warm, r, base}
	for i, rep := range reps {
		env.log("rep %d (%s): setup %.3fs run %.3fs cpu %.3fs, %d/%d drivers failed",
			i+1, []string{"warm-up", "traced", "untraced"}[i], rep.setup, rep.run, rep.cpu, rep.failed, rep.attempted)
	}
	layers["trace_overhead_s"] = r.run - base.run
	path := filepath.Join(env.workDir, fmt.Sprintf("spans-%s-budget%d.json", env.b.name, env.cfg.Budget))
	if err := writeSpans(path, r.spans); err != nil {
		return nil, nil, err
	}
	env.log("spans written to %s", path)
	return layers, reps, nil
}

// traced runs one traced repetition, then the layer probes on its
// input-0 traces, and returns the repetition with every per-layer
// metric but the run-level ones (trace overhead, host noise).
func traced(env repEnv) (repResult, map[string]float64, error) {
	r, err := runRep(env, time.Now(), getUsage(), newTracer())
	if err != nil {
		r.release()
		return r, nil, err
	}
	inputs, err := probeInputs(r.cfg)
	r.release()
	if err != nil {
		return r, nil, err
	}
	freeMemory()
	layers := r.layers
	for k, v := range runProbes(inputs, env.cfg.SliceLen) {
		layers[k] = v
	}
	return r, layers, nil
}

// freeMemory returns a finished repetition's heap to the OS, so the
// next one starts from the same resident set.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printDigests prints a non-canonical seed's artifact digests, so two
// commits can be compared on a seed that has no golden digests.
func printDigests(w io.Writer, digests map[string]string) {
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "digest %s %s\n", id, digests[id])
	}
}

// printGolden runs every workload once at seed 0 and prints its
// artifact digests in golden.json's format.
func printGolden(workers int, w io.Writer, logf func(string, ...any)) int {
	all := map[string]map[string]string{}
	for _, b := range benches {
		env := repEnv{b: b, cfg: seededConfig(b, 0, workers), workDir: workDir, log: logf}
		r, err := runRep(env, time.Now(), getUsage(), nil)
		r.release()
		if err != nil || r.failed > 0 {
			logf("%s: %v (%d drivers failed)", b.name, err, r.failed)
			return 1
		}
		all[b.name] = r.digests
		freeMemory()
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(w, string(out))
	return 0
}
