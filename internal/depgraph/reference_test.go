package depgraph

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/program"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// This file keeps the analyzer's observer step and backward walk as
// they were before the bitset closure — a map from value ID to
// membership, cleared key by key for every analysis — as the exactness
// oracle for TestAnalyzeMatchesReference.

// refInst is Analyzer.Inst as it was, calling refAnalyze.
func refInst(a *Analyzer, closure map[uint64]struct{}, inst *trace.Inst) {
	a.seq++
	e := ringEntry{seq: a.seq, ip: inst.IP, isCond: inst.Kind == trace.KindCondBr}
	for k, r := range inst.SrcRegs {
		if r != trace.NoReg {
			e.srcVals[k] = a.regWriter[r]
		}
	}
	if inst.Kind == trace.KindLoad {
		e.srcVals[2] = a.memWriter[inst.MemAddr>>3]
	}

	// Analyze *before* inserting the target itself, so the window holds
	// exactly the prior instructions.
	if e.isCond {
		if st, ok := a.targets[inst.IP]; ok {
			st.execs++
			if a.MaxSamples == 0 || st.analyzed < uint64(a.MaxSamples) {
				st.analyzed++
				refAnalyze(a, closure, st, e)
			}
		}
	}

	a.ring[a.head] = e
	a.head = (a.head + 1) % len(a.ring)
	if a.size < len(a.ring) {
		a.size++
	}
	if inst.DstReg != trace.NoReg {
		a.regWriter[inst.DstReg] = a.seq
	}
	if inst.Kind == trace.KindStore {
		a.memWriter[inst.MemAddr>>3] = a.seq
		// Bound the memory writer map: forget very old stores.
		if len(a.memWriter) > 1<<18 {
			for k, v := range a.memWriter {
				if a.seq-v > uint64(a.Window)*4 {
					delete(a.memWriter, k)
				}
			}
		}
	}
}

// refAnalyze is Analyzer.analyze as it was: it walks the window backwards from the target execution, expands
// the dataflow closure of the target's source values, and records every
// conditional branch that reads a closure value at its history position
// (1 = the branch immediately before the target).
func refAnalyze(a *Analyzer, closure map[uint64]struct{}, st *targetState, target ringEntry) {
	for k := range closure {
		delete(closure, k)
	}
	for _, v := range target.srcVals {
		if v != 0 {
			closure[v] = struct{}{}
		}
	}
	if len(closure) == 0 {
		return
	}
	minSeq := uint64(1)
	if a.seq > uint64(a.Window) {
		minSeq = a.seq - uint64(a.Window)
	}
	histPos := 0
	// Walk newest -> oldest. Because values are writer sequence numbers
	// and writers precede readers, one backward pass expands the closure
	// transitively: when we reach a writer, its own sources join the
	// closure before any older instruction is visited.
	for k := 1; k <= a.size; k++ {
		idx := a.head - k
		if idx < 0 {
			idx += len(a.ring)
		}
		e := &a.ring[idx]
		if e.seq < minSeq {
			break
		}
		if e.isCond {
			histPos++
		}
		_, inClosure := closure[e.seq]
		if inClosure {
			// This instruction defined a closure value: its inputs are
			// also ground-truth-relevant.
			for _, v := range e.srcVals {
				if v != 0 {
					closure[v] = struct{}{}
				}
			}
		}
		if e.isCond {
			reads := false
			for _, v := range e.srcVals {
				if v == 0 {
					continue
				}
				if _, ok := closure[v]; ok {
					reads = true
					break
				}
			}
			if reads {
				m := st.positions[e.ip]
				if m == nil {
					m = make(map[int]uint64)
					st.positions[e.ip] = m
				}
				m[histPos]++
			}
		}
	}
}

// runBoth feeds tr through a production analyzer and through the
// reference step on a second analyzer with the same geometry. It also
// reports whether any analysis put a value older than its window into
// the closure's side list.
func runBoth(tr *trace.Buffer, window, maxSamples int, targets ...uint64) (got, want *Analyzer, sawOld bool) {
	got = New(window, maxSamples, targets...)
	want = New(window, maxSamples, targets...)
	closure := make(map[uint64]struct{})
	s := tr.Stream()
	var inst trace.Inst
	for i := uint64(0); s.Next(&inst); i++ {
		got.Inst(i, &inst)
		sawOld = sawOld || len(got.closure.old) > 0
		refInst(want, closure, &inst)
	}
	return got, want, sawOld
}

func sameResults(t *testing.T, got, want *Analyzer, targets []uint64) {
	t.Helper()
	for _, tg := range targets {
		if g, w := got.Summarize(tg), want.Summarize(tg); g != w {
			t.Fatalf("target %#x: Summarize = %+v, reference %+v", tg, g, w)
		}
		if g, w := got.Positions(tg), want.Positions(tg); !reflect.DeepEqual(g, w) {
			t.Fatalf("target %#x: Positions differ from the reference (%d vs %d entries)", tg, len(g), len(w))
		}
	}
}

// TestAnalyzeMatchesReference requires the bitset closure to record
// exactly the reference's dependency positions. Windows run from one
// instruction to just past the paper's 5000; the small ones make
// almost every value the targets read older than the window, so the
// side list of out-of-window values is exercised (and required to be).
// Each target executes about 1300 times: MaxSamples 0 and 4000 (the
// drivers' setting) analyze every execution, 500 cuts them off.
func TestAnalyzeMatchesReference(t *testing.T) {
	tr := depTrace(24_000, 11)
	targets := []uint64{0xD000, 0xD040, 0xD080}
	sawOld := false
	for _, window := range []int{1, 7, 64, 5000, 5001} {
		for _, maxSamples := range []int{0, 500, 4000} {
			t.Run(fmt.Sprintf("window=%d/max=%d", window, maxSamples), func(t *testing.T) {
				got, want, old := runBoth(tr, window, maxSamples, targets...)
				sawOld = sawOld || old
				sameResults(t, got, want, targets)
				sum := want.Summarize(targets[0])
				if sum.DepBranches == 0 {
					t.Fatal("reference found no dependency branches; the case checks nothing")
				}
				if maxSamples == 500 && sum.Analyzed != 500 {
					t.Fatalf("MaxSamples 500 analyzed %d of %d executions", sum.Analyzed, sum.Execs)
				}
			})
		}
	}
	if !sawOld {
		t.Error("no case reached a closure value older than its window")
	}
}

// TestAnalyzeMatchesReferenceWorkloads runs the same comparison over
// every SPECint-like workload's input-0 trace at the Quick budget,
// targeting its top H2P heavy hitter with the paper's window, as the
// table3 and fig6 drivers do. Some of those targets have no
// dependency branches at this budget; the test requires that most do.
func TestAnalyzeMatchesReferenceWorkloads(t *testing.T) {
	const budget, sliceLen = 400_000, 200_000
	withDeps := 0
	for _, spec := range workload.SPECint2017Like() {
		t.Run(spec.Name, func(t *testing.T) {
			tr := recordWorkload(t, spec, budget)
			col := core.NewCollector(sliceLen)
			core.Run(tr.Stream(), tage.New(tage.Config8KB()), col)
			hh := core.PaperCriteria().Scaled(sliceLen).Screen(col).HeavyHitters()
			if len(hh) == 0 {
				t.Skip("no H2P heavy hitter at this budget")
			}
			target := hh[0].IP
			got, want, _ := runBoth(tr, DefaultWindow, 300, target)
			sameResults(t, got, want, []uint64{target})
			if want.Summarize(target).DepBranches > 0 {
				withDeps++
			}
		})
	}
	if withDeps < 4 {
		t.Errorf("only %d workload targets have dependency branches", withDeps)
	}
}

// recordWorkload records input 0 of s at budget, failing the test on
// error.
func recordWorkload(t testing.TB, s *workload.Spec, budget uint64) *trace.Buffer {
	t.Helper()
	rec, err := s.Record(context.Background(), 0, budget, program.Request{})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Buffer()
}
