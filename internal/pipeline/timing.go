package pipeline

import (
	"fmt"

	"branchlab/internal/core"
	"branchlab/internal/trace"
)

// Time is stage C of the layered model: the timing recurrence of cfg
// over tr, reading cache latencies and BTB redirects from a (Annotate
// over tr with cfg's caches and BTB) and mispredictions from miss (one
// bit per conditional branch, see Oracle; nil means none). It performs
// no cache, BTB or predictor work, so a scale sweep annotates and
// predicts once and calls Time per scale. Time panics if a or miss was
// made for a different trace or machine.
func Time(cfg Config, tr trace.Replayable, a *Annotation, miss *core.MispredictMap) Result {
	a.check(cfg, tr.Len())
	t := newTimer(cfg, a.iLat, a.dLat)
	bs := tr.BlockStream(0)
	i := 0
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		t.block(blk, a.rec[i:i+len(blk)], miss)
		i += len(blk)
	}
	if miss != nil && miss.Len() != t.k {
		panic(fmt.Sprintf("pipeline: misprediction map covers %d conditional branches, trace has %d", miss.Len(), t.k))
	}
	return t.result(a.l1dMisses)
}

func execLatency(kind trace.Kind) uint64 {
	switch kind {
	case trace.KindALU, trace.KindNop:
		return 1
	case trace.KindMul:
		return 3
	case trace.KindDiv:
		return 18
	case trace.KindFP:
		return 4
	case trace.KindStore:
		return 1
	default: // branches resolve in one cycle once operands are ready
		return 1
	}
}

// timer is stage C's state: register readiness, the bounded structures'
// release rings, the width limiters, store forwarding, and the fetch
// redirect and retirement frontier.
type timer struct {
	cfg        Config
	iLat, dLat [maxDepths]uint64
	// fetchLag bounds fetch from below: fetch never falls more than
	// this far behind the last retirement, which keeps the width
	// limiters' ring windows aligned.
	fetchLag uint64

	regReady [trace.NumRegs]uint64

	// Ring buffers holding per-entry release cycles for each bounded
	// structure: an instruction cannot claim entry i%N until the
	// previous holder released it.
	robRelease, schedRelease, lqRelease, sqRelease []uint64
	robIdx, schedIdx, lqIdx, sqIdx                 int

	fetchLim, issueLim, retireLim *widthLimiter
	fwd                           *storeForwarder

	fetchReady uint64 // earliest cycle fetch may proceed (redirects)
	lastRetire uint64
	lastCycle  uint64

	insts, k, mispreds uint64 // k counts conditional branches
}

// newTimer returns a timer for cfg; iLat and dLat map the annotation's
// serving depths to latencies.
func newTimer(cfg Config, iLat, dLat [maxDepths]uint64) *timer {
	return &timer{
		cfg:          cfg,
		iLat:         iLat,
		dLat:         dLat,
		fetchLag:     uint64(cfg.ROBSize) + cfg.FrontDepth + widthWindow/2,
		robRelease:   make([]uint64, cfg.ROBSize),
		schedRelease: make([]uint64, cfg.SchedSize),
		lqRelease:    make([]uint64, cfg.LQSize),
		sqRelease:    make([]uint64, cfg.SQSize),
		fetchLim:     newWidthLimiter(cfg.FetchWidth),
		issueLim:     newWidthLimiter(cfg.IssueWidth),
		retireLim:    newWidthLimiter(cfg.RetireWidth),
		fwd:          newStoreForwarder(cfg.SQSize),
	}
}

// block times blk given its annotation records rec and the run's
// misprediction map (indexed by the run-wide conditional branch count).
// The hot scalars live in locals for the loop and are written back.
func (t *timer) block(blk []trace.Inst, rec []uint8, miss *core.MispredictMap) {
	cfg := &t.cfg
	rec = rec[:len(blk)]
	fetchReady, lastRetire, lastCycle := t.fetchReady, t.lastRetire, t.lastCycle
	robIdx, schedIdx, lqIdx, sqIdx := t.robIdx, t.schedIdx, t.lqIdx, t.sqIdx
	k, mispreds := t.k, t.mispreds
	regReady := &t.regReady
	for j := range blk {
		inst := &blk[j]
		r := rec[j]

		// --- Fetch ---------------------------------------------------
		floor := uint64(0)
		if lastRetire > t.fetchLag {
			floor = lastRetire - t.fetchLag
		}
		// The instruction-cache access delays fetch on a miss.
		fetch := t.fetchLim.reserve(maxU(fetchReady, floor)) + t.iLat[r&recIDepth]

		// --- Dispatch: ROB + scheduler occupancy ----------------------
		dispatch := fetch + cfg.FrontDepth
		if rr := t.robRelease[robIdx]; rr > dispatch {
			dispatch = rr
		}
		if rr := t.schedRelease[schedIdx]; rr > dispatch {
			dispatch = rr
		}
		switch inst.Kind {
		case trace.KindLoad:
			if rr := t.lqRelease[lqIdx]; rr > dispatch {
				dispatch = rr
			}
		case trace.KindStore:
			if rr := t.sqRelease[sqIdx]; rr > dispatch {
				dispatch = rr
			}
		}

		// --- Issue: operand readiness + issue bandwidth ---------------
		ready := dispatch
		for _, s := range inst.SrcRegs {
			if s != trace.NoReg && regReady[s] > ready {
				ready = regReady[s]
			}
		}
		issue := t.issueLim.reserve(ready)

		// --- Execute ---------------------------------------------------
		var done uint64
		switch inst.Kind {
		case trace.KindLoad:
			// Store-to-load forwarding: a recent store to the same block
			// bounds the load's completion from below.
			done = maxU(issue+t.dLat[(r&recDDepth)>>recDShift], t.fwd.forward(inst.MemAddr>>3))
		case trace.KindStore:
			done = issue + execLatency(inst.Kind)
			t.fwd.push(inst.MemAddr>>3, done)
		default:
			done = issue + execLatency(inst.Kind)
		}
		if inst.DstReg != trace.NoReg {
			regReady[inst.DstReg] = done
		}

		// --- Branch handling -------------------------------------------
		if inst.Kind == trace.KindCondBr {
			if miss != nil && miss.Mispredicted(k) {
				mispreds++
				// Wrong-path fetch is squashed when the branch resolves;
				// fetch restarts after the redirect penalty.
				fetchReady = maxU(fetchReady, done+cfg.RedirectPenalty)
			}
			k++
		}
		// A taken branch whose target the BTB/RAS did not produce at
		// fetch costs a decode-redirect bubble.
		if r&recBTBMiss != 0 {
			fetchReady = maxU(fetchReady, fetch+cfg.BTBMissPenalty)
		}

		// --- Retire -----------------------------------------------------
		retire := t.retireLim.reserve(maxU(done+1, lastRetire))
		lastRetire = retire
		lastCycle = maxU(lastCycle, retire)

		// Release bounded structures.
		t.robRelease[robIdx] = retire
		if robIdx++; robIdx == len(t.robRelease) {
			robIdx = 0
		}
		t.schedRelease[schedIdx] = issue
		if schedIdx++; schedIdx == len(t.schedRelease) {
			schedIdx = 0
		}
		switch inst.Kind {
		case trace.KindLoad:
			t.lqRelease[lqIdx] = done
			if lqIdx++; lqIdx == len(t.lqRelease) {
				lqIdx = 0
			}
		case trace.KindStore:
			t.sqRelease[sqIdx] = retire
			if sqIdx++; sqIdx == len(t.sqRelease) {
				sqIdx = 0
			}
		}
	}
	t.fetchReady, t.lastRetire, t.lastCycle = fetchReady, lastRetire, lastCycle
	t.robIdx, t.schedIdx, t.lqIdx, t.sqIdx = robIdx, schedIdx, lqIdx, sqIdx
	t.k, t.mispreds = k, mispreds
	t.insts += uint64(len(blk))
}

// result finalizes the run's counters; l1dMisses is the data-cache miss
// count over the run.
func (t *timer) result(l1dMisses uint64) Result {
	res := Result{Insts: t.insts, Cycles: t.lastCycle, CondExecs: t.k, Mispreds: t.mispreds}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if res.Insts > 0 {
		res.MPKI = 1000 * float64(res.Mispreds) / float64(res.Insts)
		res.L1DMissPKI = 1000 * float64(l1dMisses) / float64(res.Insts)
	}
	return res
}

// widthWindow is the width limiters' ring size in cycles. It must
// exceed any look-back distance, which is bounded by the largest latency
// chain (memory latency + penalties « window).
const widthWindow = 1 << 15

// widthLimiter caps events per cycle: a ring of per-cycle counts over
// the last widthWindow cycles, where a request for an older cycle reads
// whichever cycle currently owns its slot. It is exact with the
// reference model's limiter (refLimiter) and avoids that limiter's two
// linear costs:
//
//   - Clearing: a slot's count belongs to the latest cycle at or below
//     the frontier (lastSeen) that maps to the slot. Instead of zeroing
//     slots as the frontier moves, each slot records which cycle its
//     count belongs to (as an epoch, cycle / widthWindow) and reads as
//     zero when that is no longer the owner.
//   - Re-probing: a request that falls inside the range the previous
//     request found full starts probing at the end of that range.
//     Fetch requests are non-decreasing and mostly land there, so the
//     fetch limiter no longer walks every full cycle since the last
//     redirect.
type widthLimiter struct {
	counts   []uint16
	epochs   []uint32
	limit    uint16
	lastSeen uint64 // highest cycle requested or probed so far
	// Every cycle in [fullFrom, fullTo) read as full when last probed.
	// While those cycles stay within widthWindow of the frontier their
	// slots keep their owners, and counts only grow, so they are still
	// full.
	fullFrom, fullTo uint64
}

func newWidthLimiter(limit int) *widthLimiter {
	return &widthLimiter{
		counts: make([]uint16, widthWindow),
		epochs: make([]uint32, widthWindow),
		limit:  uint16(limit),
	}
}

// reserve finds the first cycle >= want with a free slot and claims it.
func (w *widthLimiter) reserve(want uint64) uint64 {
	c := want
	if want >= w.fullFrom && want < w.fullTo && want+widthWindow > w.lastSeen {
		c = w.fullTo
	}
	for {
		if c > w.lastSeen {
			w.lastSeen = c
		}
		// The slot's owner is the latest cycle <= lastSeen congruent to
		// c: c itself unless c is a full window behind the frontier.
		owner := uint32(c / widthWindow)
		if c+widthWindow <= w.lastSeen {
			owner = uint32((w.lastSeen - (w.lastSeen-c)&(widthWindow-1)) / widthWindow)
		}
		i := c & (widthWindow - 1)
		if w.epochs[i] != owner {
			w.epochs[i], w.counts[i] = owner, 0
		}
		if w.counts[i] < w.limit {
			w.counts[i]++
			w.fullFrom, w.fullTo = want, c
			if w.counts[i] == w.limit {
				w.fullTo = c + 1
			}
			return c
		}
		c++
	}
}

// storeForwarder answers the store-to-load forwarding query — the
// latest completion cycle among the last n stores to a block (0 when
// there is none) — in amortized O(1) per store and per load, where the
// store-queue scan it replaces cost n per load.
//
// The last n stores occupy a ring of n slots, store s in slot s mod n.
// Per block, the slots that can still answer a query form a deque,
// oldest to newest, with strictly decreasing completion cycles: when a
// store is pushed, older stores to its block that complete no later are
// dropped, since the newer store outlives them in the window and
// dominates them. The answer is the deque's front. When a slot is
// reused its previous store leaves the window; if that store is still
// in a deque it is that deque's front (it is the oldest live store), so
// eviction is O(1). A hash table with linear probing maps each block
// with a non-empty deque to its front and back slots.
type storeForwarder struct {
	block, done []uint64 // per slot: the store's block and completion
	prev, next  []int32  // per slot: deque neighbours (-1 = none)
	queued      []bool   // per slot: the store is in its block's deque
	cur         int      // slot the next store takes

	keys        []uint64 // table: block
	front, back []int32  // table: deque ends (front -1 = empty bucket)
	shift       uint     // table index = hash >> shift
}

func newStoreForwarder(n int) *storeForwarder {
	size, shift := 16, uint(64-4)
	for size < 2*n { // load factor <= 1/2: at most n blocks are live
		size *= 2
		shift--
	}
	f := &storeForwarder{
		block:  make([]uint64, n),
		done:   make([]uint64, n),
		prev:   make([]int32, n),
		next:   make([]int32, n),
		queued: make([]bool, n),
		keys:   make([]uint64, size),
		front:  make([]int32, size),
		back:   make([]int32, size),
		shift:  shift,
	}
	for i := range f.front {
		f.front[i] = -1
	}
	return f
}

func (f *storeForwarder) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> f.shift)
}

// bucket returns block's table index, or the empty bucket where it
// would be inserted.
func (f *storeForwarder) bucket(block uint64) int {
	mask := len(f.keys) - 1
	i := f.home(block)
	for f.front[i] >= 0 && f.keys[i] != block {
		i = (i + 1) & mask
	}
	return i
}

// forward returns the latest completion cycle among the live stores to
// block, or 0.
func (f *storeForwarder) forward(block uint64) uint64 {
	if s := f.front[f.bucket(block)]; s >= 0 {
		return f.done[s]
	}
	return 0
}

// push records the next store, evicting the store n stores older.
func (f *storeForwarder) push(block, done uint64) {
	s := int32(f.cur)
	if f.cur++; f.cur == len(f.block) {
		f.cur = 0
	}
	if f.queued[s] {
		i := f.bucket(f.block[s])
		if nx := f.next[s]; nx >= 0 {
			f.front[i] = nx
			f.prev[nx] = -1
		} else {
			f.remove(i)
		}
	}
	i := f.bucket(block)
	b := int32(-1)
	if f.front[i] >= 0 {
		b = f.back[i]
		for b >= 0 && f.done[b] <= done {
			f.queued[b] = false
			b = f.prev[b]
		}
	} else {
		f.keys[i] = block
	}
	if b >= 0 {
		f.next[b] = s
	} else {
		f.front[i] = s
	}
	f.back[i] = s
	f.prev[s], f.next[s] = b, -1
	f.block[s], f.done[s], f.queued[s] = block, done, true
}

// remove empties bucket i, shifting later entries of its probe run back
// so every key stays reachable from its home (linear-probing deletion).
func (f *storeForwarder) remove(i int) {
	mask := len(f.keys) - 1
	for j := (i + 1) & mask; f.front[j] >= 0; j = (j + 1) & mask {
		h := f.home(f.keys[j])
		// Entry j stays put when its home lies cyclically in (i, j].
		if (i <= j && i < h && h <= j) || (i > j && (i < h || h <= j)) {
			continue
		}
		f.keys[i], f.front[i], f.back[i] = f.keys[j], f.front[j], f.back[j]
		i = j
	}
	f.front[i] = -1
}
