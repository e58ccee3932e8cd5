package pipeline

import (
	"branchlab/internal/bp"
	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/trace"
)

// Reference is the fused single-loop timing model the layered stages
// were split from: one pass that accesses the caches, drives the
// predictor (with its own train/observe dispatch) and the BTB, and
// advances the timing recurrence for each instruction in turn, with a
// cold hierarchy and BTB. It is kept as the oracle the layered model is
// tested and benchmarked against (like tage.Reference), not for
// production use: New(cfg).Run and Time over Annotate/Oracle must
// return exactly its Result.
//
// Reference panics if cfg fails Validate.
func Reference(cfg Config, s trace.Stream, opt Options) Result {
	cfg.mustValidate()
	window := widthWindow(cfg)
	bs := trace.AsBlocks(s, trace.DefaultBlockLen)
	hier := cache.NewHierarchy(cfg.Caches)
	var tb *btb.BTB
	if cfg.BTBMissPenalty > 0 {
		tb = btb.New(cfg.BTB)
	}
	var res Result

	var (
		regReady [trace.NumRegs]uint64

		// Ring buffers holding per-entry release cycles for each bounded
		// structure: an instruction cannot claim entry i%N until the
		// previous holder released it.
		robRelease   = make([]uint64, cfg.ROBSize)
		schedRelease = make([]uint64, cfg.SchedSize)
		lqRelease    = make([]uint64, cfg.LQSize)
		sqRelease    = make([]uint64, cfg.SQSize)
		robIdx       int
		schedIdx     int
		lqIdx        int
		sqIdx        int

		fetchLim  = newRefLimiter(cfg.FetchWidth, window)
		issueLim  = newRefLimiter(cfg.IssueWidth, window)
		retireLim = newRefLimiter(cfg.RetireWidth, window)

		fetchReady uint64 // earliest cycle fetch may proceed (redirects)
		lastRetire uint64
		lastCycle  uint64

		// Store-to-load forwarding over the most recent stores.
		storeAddr  = make([]uint64, cfg.SQSize)
		storeDone  = make([]uint64, cfg.SQSize)
		execCounts = make(map[uint64]uint64) // for MinExecsPerfect
	)

	// Resolve the predictor's optional interfaces once, outside the
	// per-instruction loop (same hoist as core.Run).
	var predTT bp.TargetTrainer
	var predBO bp.BranchObserver
	if opt.Predictor != nil {
		predTT, _ = opt.Predictor.(bp.TargetTrainer)
		predBO, _ = opt.Predictor.(bp.BranchObserver)
	}
	train := func(ip, target uint64, taken, pred bool) {
		if predTT != nil {
			predTT.TrainWithTarget(ip, target, taken, pred)
			return
		}
		opt.Predictor.Train(ip, taken, pred)
	}

	blk := bs.NextBlock()
	j := 0
	for {
		if j >= len(blk) {
			if blk = bs.NextBlock(); len(blk) == 0 {
				break
			}
			j = 0
		}
		inst := &blk[j]
		j++
		res.Insts++

		// --- Fetch ---------------------------------------------------
		fetch := fetchLim.reserve(maxU(fetchReady, refFetchFloor(lastRetire, cfg, window)))
		// Instruction-cache access delays fetch on miss (block-granular:
		// the hierarchy caches the line after the first access).
		if lat := hier.L1I.Access(inst.IP); lat > 0 {
			fetch += lat
		}

		// --- Dispatch: ROB + scheduler occupancy ----------------------
		dispatch := fetch + cfg.FrontDepth
		if r := robRelease[robIdx]; r > dispatch {
			dispatch = r
		}
		if r := schedRelease[schedIdx]; r > dispatch {
			dispatch = r
		}
		if inst.Kind == trace.KindLoad {
			if r := lqRelease[lqIdx]; r > dispatch {
				dispatch = r
			}
		}
		if inst.Kind == trace.KindStore {
			if r := sqRelease[sqIdx]; r > dispatch {
				dispatch = r
			}
		}

		// --- Issue: operand readiness + issue bandwidth ---------------
		ready := dispatch
		for _, r := range inst.SrcRegs {
			if r != trace.NoReg && regReady[r] > ready {
				ready = regReady[r]
			}
		}
		issue := issueLim.reserve(ready)

		// --- Execute ---------------------------------------------------
		var done uint64
		switch inst.Kind {
		case trace.KindLoad:
			lat := hier.L1D.Access(inst.MemAddr)
			// Store-to-load forwarding: a recent store to the same block
			// bounds the load's completion from below.
			block := inst.MemAddr >> 3
			fwd := uint64(0)
			for i := range storeAddr {
				if storeAddr[i] == block && storeDone[i] > fwd {
					fwd = storeDone[i]
				}
			}
			done = maxU(issue+lat, fwd)
		case trace.KindStore:
			done = issue + execLatency(inst.Kind)
			storeAddr[sqIdx] = inst.MemAddr >> 3
			storeDone[sqIdx] = done
		default:
			done = issue + execLatency(inst.Kind)
		}
		if inst.DstReg != trace.NoReg {
			regReady[inst.DstReg] = done
		}

		// --- Branch handling -------------------------------------------
		if inst.Kind == trace.KindCondBr {
			res.CondExecs++
			pred := inst.Taken
			switch {
			case opt.PerfectBP:
				// oracle
			case opt.PerfectIPs != nil && opt.PerfectIPs[inst.IP]:
				// oracle for the selected set; still train the predictor
				// so shared history matches deployment.
				if opt.Predictor != nil {
					p := opt.Predictor.Predict(inst.IP)
					train(inst.IP, inst.Target, inst.Taken, p)
				}
			case opt.MinExecsPerfect > 0 && execCounts[inst.IP] >= opt.MinExecsPerfect:
				if opt.Predictor != nil {
					p := opt.Predictor.Predict(inst.IP)
					train(inst.IP, inst.Target, inst.Taken, p)
				}
			case opt.Predictor != nil:
				pred = opt.Predictor.Predict(inst.IP)
				train(inst.IP, inst.Target, inst.Taken, pred)
			}
			if opt.MinExecsPerfect > 0 {
				execCounts[inst.IP]++
			}
			if pred != inst.Taken {
				res.Mispreds++
				// Wrong-path fetch is squashed when the branch resolves;
				// fetch restarts after the redirect penalty.
				if nr := done + cfg.RedirectPenalty; nr > fetchReady {
					fetchReady = nr
				}
			}
		} else if inst.Kind.IsBranch() {
			if predBO != nil && !opt.PerfectBP {
				predBO.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}

		// Target prediction: a taken branch whose target the BTB/RAS did
		// not produce at fetch costs a decode-redirect bubble.
		if tb != nil && inst.Kind.IsBranch() {
			predTarget, hit := tb.Lookup(inst.IP, inst.Kind)
			if !tb.Update(inst.IP, inst.Target, inst.Kind, inst.Taken, predTarget, hit) {
				if nr := fetch + cfg.BTBMissPenalty; nr > fetchReady {
					fetchReady = nr
				}
			}
		}

		// --- Retire -----------------------------------------------------
		retire := retireLim.reserve(maxU(done+1, lastRetire))
		lastRetire = retire
		lastCycle = maxU(lastCycle, retire)

		// Release bounded structures.
		robRelease[robIdx] = retire
		robIdx++
		if robIdx == cfg.ROBSize {
			robIdx = 0
		}
		schedRelease[schedIdx] = issue
		schedIdx++
		if schedIdx == cfg.SchedSize {
			schedIdx = 0
		}
		if inst.Kind == trace.KindLoad {
			lqRelease[lqIdx] = done
			lqIdx++
			if lqIdx == cfg.LQSize {
				lqIdx = 0
			}
		}
		if inst.Kind == trace.KindStore {
			sqRelease[sqIdx] = retire
			sqIdx++
			if sqIdx == cfg.SQSize {
				sqIdx = 0
			}
		}
	}

	res.Cycles = lastCycle
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if res.Insts > 0 {
		res.MPKI = 1000 * float64(res.Mispreds) / float64(res.Insts)
		res.L1DMissPKI = 1000 * float64(hier.L1D.Stats().Misses) / float64(res.Insts)
	}
	return res
}

// refFetchFloor bounds fetch from below so that fetch cannot fall
// unboundedly behind retirement bookkeeping (keeps the width-limiter ring
// windows aligned).
func refFetchFloor(lastRetire uint64, cfg Config, window uint64) uint64 {
	if lastRetire > uint64(cfg.ROBSize)+cfg.FrontDepth+window/2 {
		return lastRetire - uint64(cfg.ROBSize) - cfg.FrontDepth - window/2
	}
	return 0
}

// refLimiter is the reference model's width limiter: per-cycle event
// counts in a ring of window cycles (a power of two), cleared eagerly
// as the simulation moves past them, probed linearly from the requested
// cycle.
type refLimiter struct {
	counts []uint16
	limit  uint16
	// lastSeen is the highest cycle the ring has been advanced to.
	lastSeen uint64
}

func newRefLimiter(limit int, window uint64) *refLimiter {
	return &refLimiter{counts: make([]uint16, window), limit: uint16(limit)}
}

// reserve finds the first cycle >= want with a free slot and claims it.
func (w *refLimiter) reserve(want uint64) uint64 {
	for {
		w.advance(want)
		i := want & uint64(len(w.counts)-1)
		if w.counts[i] < w.limit {
			w.counts[i]++
			return want
		}
		want++
	}
}

// advance lazily clears ring slots the simulation has moved past.
func (w *refLimiter) advance(cycle uint64) {
	if cycle <= w.lastSeen {
		return
	}
	// Clear slots in (lastSeen, cycle]; they belong to new cycles.
	window := uint64(len(w.counts))
	d := min(cycle-w.lastSeen, window)
	for i := uint64(1); i <= d; i++ {
		w.counts[(w.lastSeen+i)&(window-1)] = 0
	}
	w.lastSeen = cycle
}
