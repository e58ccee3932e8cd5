package main

import (
	"fmt"
	"time"

	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/cnn"
	"branchlab/internal/core"
	"branchlab/internal/depgraph"
	"branchlab/internal/engine"
	"branchlab/internal/experiments"
	"branchlab/internal/phase"
	"branchlab/internal/pipeline"
	"branchlab/internal/simpoint"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// probeWindow is how many leading instructions of each input-0 trace
// the probes walk. It bounds the probes' cost on full-budget traces.
const probeWindow = 200_000

// probeTrace is one probe input: a trace prefix copied into a plain
// buffer, so a probe times its own layer and not cache refills.
type probeTrace struct {
	name string
	buf  *trace.Buffer
	top  uint64 // the conditional branch TAGE-SC-L 8KB mispredicts most
}

// probeInputs copies the window of every workload's input-0 trace out
// of cfg's cache and finds each one's top mispredicted branch.
func probeInputs(cfg experiments.Config) (out []probeTrace, err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = engine.Recovered(r); err == nil {
				panic(r)
			}
			err = fmt.Errorf("probe inputs: %w", err)
		}
	}()
	specs := append(workload.SPECint2017Like(), workload.LCFLike()...)
	for _, s := range specs {
		window := trace.Limit(cfg.RecordTrace(s, 0).Stream(), probeWindow)
		buf := trace.RecordSized(window, probeWindow)
		if err := trace.CloseStream(window); err != nil {
			return nil, fmt.Errorf("probe input %s: %w", s.Name, err)
		}
		col := core.NewCollector(probeWindow)
		core.Run(buf.Stream(), tage.New(tage.Config8KB()), col)
		var top uint64
		var most uint64
		for ip, st := range col.Totals() {
			if st.Mispreds > most || st.Mispreds == most && ip < top {
				top, most = ip, st.Mispreds
			}
		}
		out = append(out, probeTrace{s.Name, buf, top})
	}
	return out, nil
}

// runProbes calls each layer's public entry point on the probe inputs
// and reports its throughput in millions of trace instructions per
// host second, and an exact count of what it computed.
func runProbes(inputs []probeTrace, sliceLen uint64) map[string]float64 {
	m := map[string]float64{}
	var insts uint64
	for _, in := range inputs {
		insts += uint64(in.buf.Len())
	}
	// timed runs fn once per input and returns the throughput.
	timed := func(fn func(in probeTrace)) float64 {
		t0 := time.Now()
		for _, in := range inputs {
			fn(in)
		}
		return float64(insts) / 1e6 / time.Since(t0).Seconds()
	}

	m["core.replay.mips"] = timed(func(in probeTrace) { core.Observe(in.buf.Stream()) })

	var mispreds uint64
	m["tage.mips"] = timed(func(in probeTrace) {
		mispreds += core.Run(in.buf.Stream(), tage.New(tage.Config8KB())).Mispreds
	})
	m["tage.mispreds"] = float64(mispreds)

	var cycles uint64
	pipe := func(scale int, opt func() pipeline.Options) float64 {
		return timed(func(in probeTrace) {
			cycles += pipeline.New(pipeline.Skylake().Scaled(scale)).Run(in.buf.Stream(), opt()).Cycles
		})
	}
	perfect := func() pipeline.Options { return pipeline.Options{PerfectBP: true} }
	m["pipeline.perfect_1x.mips"] = pipe(1, perfect)
	m["pipeline.perfect_16x.mips"] = pipe(16, perfect)
	m["pipeline.tage8_1x.mips"] = pipe(1, func() pipeline.Options {
		return pipeline.Options{Predictor: tage.New(tage.Config8KB())}
	})
	m["pipeline.cycles"] = float64(cycles)

	var l1dMisses uint64
	m["cache.mips"] = timed(func(in probeTrace) {
		h := cache.NewHierarchy(cache.DefaultHierarchy())
		var inst trace.Inst
		for s := in.buf.Stream(); s.Next(&inst); {
			h.L1I.Access(inst.IP)
			if inst.Kind == trace.KindLoad || inst.Kind == trace.KindStore {
				h.L1D.Access(inst.MemAddr)
			}
		}
		l1dMisses += h.L1D.Stats().Misses
	})
	m["cache.l1d_misses"] = float64(l1dMisses)

	var btbMisses uint64
	m["btb.mips"] = timed(func(in probeTrace) {
		b := btb.New(btb.DefaultConfig())
		var inst trace.Inst
		for s := in.buf.Stream(); s.Next(&inst); {
			if inst.IsBranch() {
				target, hit := b.Lookup(inst.IP, inst.Kind)
				b.Update(inst.IP, inst.Target, inst.Kind, inst.Taken, target, hit)
			}
		}
		btbMisses += b.Stats().Misses
	})
	m["btb.misses"] = float64(btbMisses)

	m["observers.collector.mips"] = timed(func(in probeTrace) {
		core.Observe(in.buf.Stream(), core.NewCollector(sliceLen))
	})
	m["observers.bbv.mips"] = timed(func(in probeTrace) {
		core.Observe(in.buf.Stream(), simpoint.NewBBVCollector(sliceLen, simpoint.DefaultDim))
	})
	m["observers.depgraph.mips"] = timed(func(in probeTrace) {
		core.Observe(in.buf.Stream(), depgraph.New(depgraph.DefaultWindow, 4000, in.top))
	})
	m["observers.recurrence.mips"] = timed(func(in probeTrace) {
		core.Observe(in.buf.Stream(), phase.NewRecurrenceTracker())
	})

	// CNN helpers are trained only for the cnn driver's workloads.
	mcfg := cnn.DefaultConfig()
	var train time.Duration
	var samples int
	for _, in := range inputs {
		if !cnnSpecs[in.name] {
			continue
		}
		hc := cnn.NewHistoryCollector(mcfg, in.top)
		core.Observe(in.buf.Stream(), hc)
		model := cnn.NewModel(mcfg)
		t0 := time.Now()
		model.Train(hc.Samples)
		train += time.Since(t0)
		samples += len(hc.Samples)
	}
	m["cnn.train_s"] = train.Seconds()
	m["cnn.samples"] = float64(samples)
	return m
}
