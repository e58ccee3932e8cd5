// Package pipeline implements a trace-driven out-of-order core timing
// model in the style of ChampSim's Skylake configuration, the instrument
// the paper uses to convert branch prediction accuracy into IPC (Figs 1,
// 5, 7, 8).
//
// The model propagates per-instruction timestamps (fetch, dispatch, issue,
// complete, retire) under the capacity constraints the paper scales in its
// pipeline study — fetch/decode/issue/retire width, ROB, scheduler and
// load/store queues — plus data dependencies through registers and
// store-to-load forwarding, cache-latency variation, and branch
// misprediction redirects that restart fetch after the branch resolves.
// It is O(1) per instruction and deterministic.
//
// The model is layered into three stages (DESIGN.md §12). Because it is
// trace-driven — no wrong path — and Config.Scaled leaves the caches and
// BTB alone, only the last stage depends on the pipeline scale:
//
//   - Annotate (stage A) runs the trace through the cache hierarchy and
//     BTB once, keeping one byte per instruction.
//   - core.RunMispredicts (stage B) runs the predictor once, keeping one
//     bit per conditional branch; Oracle masks it for the oracle regimes.
//   - Time (stage C) is the timing recurrence over (Config, A, B).
//
// A scale sweep annotates and predicts once and times each scale from
// the shared results; Core.Run composes the three stages block by block
// for a one-shot run, and Reference keeps the fused single-loop model
// as the oracle both are tested against.
package pipeline

import (
	"fmt"

	"branchlab/internal/bp"
	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/core"
	"branchlab/internal/trace"
)

// Config describes the core. All widths/capacities are per the baseline;
// use Scaled to produce the paper's 2x-32x configurations.
type Config struct {
	Name string

	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions entering execution per cycle
	RetireWidth int // instructions retired per cycle

	ROBSize   int // reorder buffer entries
	SchedSize int // scheduler (reservation station) entries
	LQSize    int // load queue entries
	SQSize    int // store queue entries

	FrontDepth      uint64 // fetch-to-dispatch stages
	RedirectPenalty uint64 // extra cycles to restart fetch after a mispredict

	// BTBMissPenalty is the decode-redirect bubble charged when a taken
	// branch's target is not produced by the BTB/RAS at fetch. Zero
	// disables target-prediction modeling.
	BTBMissPenalty uint64
	BTB            btb.Config

	Caches cache.HierarchyConfig

	// Scale factor this config was derived with (1 = baseline).
	ScaleFactor int
}

// Skylake returns the baseline configuration, matching ChampSim's Skylake
// model: 6-wide front end, 224-entry ROB, 97-entry scheduler, 72/56-entry
// load/store queues.
func Skylake() Config {
	return Config{
		Name:            "skylake-1x",
		FetchWidth:      6,
		IssueWidth:      6,
		RetireWidth:     6,
		ROBSize:         224,
		SchedSize:       97,
		LQSize:          72,
		SQSize:          56,
		FrontDepth:      10,
		RedirectPenalty: 12,
		BTBMissPenalty:  3,
		BTB:             btb.DefaultConfig(),
		Caches:          cache.DefaultHierarchy(),
		ScaleFactor:     1,
	}
}

// Scaled multiplies the pipeline-capacity resources by k, as in the
// paper's Fig 1 study ("fetch, decode, execution, load/store buffer, ROB,
// scheduler, and retire resources"). Cache geometry and latencies are
// intentionally unchanged.
func (c Config) Scaled(k int) Config {
	if k < 1 {
		k = 1
	}
	s := c
	s.Name = fmt.Sprintf("skylake-%dx", k)
	s.FetchWidth *= k
	s.IssueWidth *= k
	s.RetireWidth *= k
	s.ROBSize *= k
	s.SchedSize *= k
	s.LQSize *= k
	s.SQSize *= k
	s.ScaleFactor = k
	return s
}

// Options selects the prediction regime for a run.
type Options struct {
	// Predictor drives speculation; ignored when PerfectBP.
	Predictor bp.Predictor
	// PerfectBP models oracle prediction for every conditional branch.
	PerfectBP bool
	// PerfectIPs are predicted perfectly regardless of the predictor
	// ("Perfect H2Ps" in Figs 1 and 5). The predictor is still trained on
	// these branches so its history state matches the deployment.
	PerfectIPs map[uint64]bool
	// MinExecsPerfect, when > 0, perfectly predicts any IP whose dynamic
	// execution count so far exceeds the threshold (Fig 8's ">1000" and
	// ">100" oracles).
	MinExecsPerfect uint64
}

// Result reports a run's timing and prediction outcomes.
type Result struct {
	Insts      uint64
	Cycles     uint64
	CondExecs  uint64
	Mispreds   uint64
	IPC        float64
	MPKI       float64
	L1DMissPKI float64
}

// Accuracy returns conditional-branch prediction accuracy.
func (r Result) Accuracy() float64 {
	if r.CondExecs == 0 {
		return 1
	}
	return 1 - float64(r.Mispreds)/float64(r.CondExecs)
}

// Core is a reusable pipeline simulator instance. Its cache hierarchy
// and BTB persist across runs (a second Run starts warm).
type Core struct {
	cfg Config
	ann *annotator
}

// New returns a Core for the configuration.
func New(cfg Config) *Core {
	return &Core{cfg: cfg, ann: newAnnotator(cfg)}
}

// BTBStats returns target-prediction statistics (zero value when target
// prediction is disabled).
func (c *Core) BTBStats() btb.Stats {
	if c.ann.btb == nil {
		return btb.Stats{}
	}
	return c.ann.btb.Stats()
}

// Hierarchy exposes the cache hierarchy (for stats reporting).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.ann.hier }

// Run simulates the stream to completion and returns timing results.
// The stream is consumed in blocks (zero-copy for Buffer replays), the
// same batching discipline as core.Run.
func (c *Core) Run(s trace.Stream, opt Options) Result {
	return c.RunBlocks(trace.AsBlocks(s, trace.DefaultBlockLen), opt)
}

// RunBlocks is Run over an explicit block stream. It composes the three
// stages block by block — annotate, predict (and apply the oracles),
// time — so a one-shot run needs one pass and no per-trace storage
// beyond the misprediction map, and yields exactly what Time returns
// over Annotate and Oracle(core.RunMispredicts) of the same trace.
func (c *Core) RunBlocks(bs trace.BlockStream, opt Options) Result {
	t := newTimer(c.cfg, c.ann.iLat, c.ann.dLat)
	p := opt.Predictor
	if opt.PerfectBP {
		p = nil
	}
	var raw, miss *core.MispredictMap
	var o *oracle
	if p != nil {
		raw = &core.MispredictMap{}
		miss = raw
		if o = newOracle(opt); o != nil {
			miss = &core.MispredictMap{}
		}
	}
	var rec []uint8
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		if cap(rec) < len(blk) {
			rec = make([]uint8, len(blk))
		}
		rec = rec[:len(blk)]
		c.ann.block(blk, rec)
		if raw != nil {
			raw.PredictBlock(p, blk)
			if o != nil {
				o.block(blk, raw, miss)
			}
		}
		t.block(blk, rec, miss)
	}
	return t.result(c.ann.hier.L1D.Stats().Misses)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
