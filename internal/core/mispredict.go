package core

import (
	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// MispredictMap records, for every conditional branch of a run in
// program order, whether the predictor mispredicted it: bit k covers
// the k-th conditional branch. It is the predictor's whole contribution
// to a timing run — the pipeline model is trace-driven, so the
// predictor's trajectory, and with it every bit, is independent of the
// timing — at one bit per conditional branch.
type MispredictMap struct {
	words []uint64
	n     uint64 // conditional branches covered
	count uint64 // set bits
}

// Len returns the number of conditional branches the map covers.
func (m *MispredictMap) Len() uint64 { return m.n }

// Count returns the number of mispredicted conditional branches.
func (m *MispredictMap) Count() uint64 { return m.count }

// Mispredicted reports whether the k-th conditional branch was
// mispredicted; k must be below Len.
func (m *MispredictMap) Mispredicted(k uint64) bool {
	return m.words[k>>6]>>(k&63)&1 != 0
}

// Append records the outcome of the next conditional branch.
func (m *MispredictMap) Append(miss bool) {
	if m.n&63 == 0 {
		m.words = append(m.words, 0)
	}
	if miss {
		m.words[m.n>>6] |= 1 << (m.n & 63)
		m.count++
	}
	m.n++
}

// PredictBlock drives blk through p with Run's semantics — predict each
// conditional branch, train it with the resolved direction (and target
// when p takes one), observe every other control-flow instruction —
// and appends one bit per conditional branch to m. Successive calls
// over the blocks of a trace evolve p exactly as one Run would.
func (m *MispredictMap) PredictBlock(p bp.Predictor, blk []trace.Inst) {
	tt, _ := p.(targetTrainer)
	bo, _ := p.(bp.BranchObserver)
	for j := range blk {
		inst := &blk[j]
		if inst.Kind == trace.KindCondBr {
			pred := p.Predict(inst.IP)
			m.Append(pred != inst.Taken)
			if tt != nil {
				tt.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pred)
			} else {
				p.Train(inst.IP, inst.Taken, pred)
			}
		} else if inst.Kind.IsBranch() {
			if bo != nil {
				bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}
	}
}

// RunMispredicts is RunBlocks with no observers that returns the
// per-branch misprediction map instead of only its totals: the
// prediction stage of the layered pipeline model. The map's Len and
// Count equal the CondExecs and Mispreds RunBlocks reports for the same
// stream and a fresh predictor.
func RunMispredicts(bs trace.BlockStream, p bp.Predictor) *MispredictMap {
	m := &MispredictMap{}
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		m.PredictBlock(p, blk)
	}
	return m
}
