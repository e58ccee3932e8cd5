package pipeline

import (
	"branchlab/internal/core"
	"branchlab/internal/trace"
)

// Oracle returns the misprediction map a timing run under opt sees,
// given the map miss of opt's predictor over tr (core.RunMispredicts):
// nil — no mispredictions — for PerfectBP, miss itself when opt names
// no oracle, otherwise a copy with the oracled branches' bits cleared.
//
// Masking is exact because the fused model trains the predictor with
// its own prediction even on the branches an oracle predicts: the
// predictor's trajectory, and so every unmasked bit, is the plain run's.
// The "Perfect H2Ps" and ">N executions" regimes therefore reuse the
// plain predictor's map rather than re-running the predictor.
func Oracle(tr trace.Replayable, miss *core.MispredictMap, opt Options) *core.MispredictMap {
	if opt.PerfectBP || miss == nil {
		return nil
	}
	o := newOracle(opt)
	if o == nil {
		return miss
	}
	out := &core.MispredictMap{}
	bs := tr.BlockStream(0)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		o.block(blk, miss, out)
	}
	return out
}

// oracle is the state of the oracle regimes: the perfectly predicted
// IPs and the running per-IP execution counts.
type oracle struct {
	ips      map[uint64]bool
	minExecs uint64
	execs    map[uint64]uint64
	k        uint64 // conditional branches masked so far
}

// newOracle returns opt's oracle, or nil when opt names none.
func newOracle(opt Options) *oracle {
	if opt.PerfectIPs == nil && opt.MinExecsPerfect == 0 {
		return nil
	}
	o := &oracle{ips: opt.PerfectIPs, minExecs: opt.MinExecsPerfect}
	if o.minExecs > 0 {
		o.execs = make(map[uint64]uint64)
	}
	return o
}

// block appends to out the masked bit of every conditional branch in
// blk, reading the predictor's bits from in.
func (o *oracle) block(blk []trace.Inst, in, out *core.MispredictMap) {
	for j := range blk {
		inst := &blk[j]
		if inst.Kind != trace.KindCondBr {
			continue
		}
		miss := in.Mispredicted(o.k) && !o.ips[inst.IP]
		o.k++
		if o.minExecs > 0 {
			if o.execs[inst.IP] >= o.minExecs {
				miss = false
			}
			o.execs[inst.IP]++
		}
		out.Append(miss)
	}
}
