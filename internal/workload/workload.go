// Package workload defines the synthetic benchmark suites that stand in
// for the paper's traces: nine SPECint-2017-like programs (Table I) and
// six large-code-footprint (LCF) applications (Table II).
//
// Each workload is a parameterized generator tuned to reproduce the
// trace-visible signature the paper reports for its counterpart: static
// branch footprint, TAGE-SC-L 8KB accuracy, the number of systematically
// hard-to-predict (H2P) branches, the share of mispredictions they cause,
// phase structure, and — for the LCF suite — the rare-branch execution
// distribution. See DESIGN.md §1 for the substitution argument.
package workload

import (
	"context"
	"errors"
	"fmt"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/xrand"
)

// PaperStats records the published Table I / Table II row a workload is
// modeled after, for documentation and experiment reports.
type PaperStats struct {
	StaticBranches  int     // total static branches (Table I) / branch IPs (Table II)
	Accuracy        float64 // TAGE-SC-L 8KB accuracy
	AccuracyExclH2P float64 // accuracy excluding H2Ps (Table I only)
	H2PsPerSlice    int     // static H2Ps per 30M slice
	MispredShareH2P float64 // fraction of mispredictions due to H2Ps
	ExecsPerBranch  float64 // avg dynamic execs per static branch (Table II)
}

// Spec is one synthetic workload.
type Spec struct {
	Name      string
	Suite     string // "specint2017" or "lcf"
	NumInputs int    // distinct application inputs (Table I "# App. Inputs")
	Paper     PaperStats
	mix       mix
}

// seed derives the deterministic seed for one (workload, input) pair.
func (s *Spec) seed(input int) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(s.Name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return xrand.Mix64(h ^ uint64(input)*0x9e3779b97f4a7c15)
}

// ErrInputRange is the sentinel wrapped when a workload is asked for an
// application input it does not have; the message names the valid
// range.
var ErrInputRange = errors.New("workload: input out of range")

// payload returns the program payload for one application input.
func (s *Spec) payload(input int) (program.Payload, error) {
	if input < 0 || input >= s.NumInputs {
		return nil, fmt.Errorf("%w: %s has inputs [0,%d), not %d", ErrInputRange, s.Name, s.NumInputs, input)
	}
	m := s.mix
	return func(e *program.Emitter) { newGen(e, m, input).run() }, nil
}

// Stream starts the workload for one input with the given instruction
// budget (program.Run). Callers should close the stream via
// trace.CloseStream when abandoning it early; when ctx is done the
// generator unwinds at its next byte-safe point and trace.StreamErr
// reports a typed cancellation (a truncated prefix is never silently
// served).
func (s *Spec) Stream(ctx context.Context, input int, budget uint64) (trace.Stream, error) {
	p, err := s.payload(input)
	if err != nil {
		return nil, err
	}
	return program.Run(ctx, s.seed(input), budget, p), nil
}

// Record materializes one input's trace at the given budget as req
// selects (program.Record): the whole trace or a range of it, in one
// array or independently owned slices, sequentially or sharded,
// capturing or resuming from checkpoints. Every registered generator is
// checkpointable. The bytes are identical for every Request.
func (s *Spec) Record(ctx context.Context, input int, budget uint64, req program.Request) (program.Recording, error) {
	p, err := s.payload(input)
	if err != nil {
		return program.Recording{}, err
	}
	return program.Record(ctx, s.seed(input), budget, p, req)
}

// BudgetSensitive reports that this workload's traces are not
// prefix-comparable across budgets: every registered generator scales
// static structure with Emitter.Budget (the cold-code footprint, the
// phase length), so a trace recorded at budget B is not a prefix of
// the same workload recorded at B' > B. Callers keying recordings in a
// cache must key on the budget (tracecache.Source.BudgetSensitive)
// rather than serve truncated prefixes.
func (s *Spec) BudgetSensitive() bool { return true }

// CacheSource is the tracecache.Source for one (input, budget) trace —
// the single place the cache is wired to this package, shared by the
// experiments drivers, the facade and the CLIs. Every recording the
// cache requests, ingest and refill alike, runs on pool with the given
// shard count; ckptEvery is the checkpoint spacing the cache resolves
// and requests (0 = no checkpoints, tracecache.CkptPerSlice = one per
// cache slice).
func (s *Spec) CacheSource(input int, budget uint64, pool *engine.Pool, shards int, ckptEvery uint64) tracecache.Source {
	return tracecache.Source{
		BudgetSensitive: s.BudgetSensitive(),
		CkptSpacing:     ckptEvery,
		Record: func(ctx context.Context, req program.Request) (program.Recording, error) {
			req.Pool, req.Shards = pool, shards
			return s.Record(ctx, input, budget, req)
		},
	}
}

// SPECint2017Like returns the nine-benchmark suite modeled on Table I
// (603.gcc_s is excluded there and appears in the LCF suite, as in the
// paper).
func SPECint2017Like() []*Spec { return specSuite() }

// LCFLike returns the six large-code-footprint applications of Table II.
func LCFLike() []*Spec { return lcfSuite() }

// ByName returns the spec with the given name from either suite.
func ByName(name string) (*Spec, bool) {
	for _, s := range SPECint2017Like() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range LCFLike() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
