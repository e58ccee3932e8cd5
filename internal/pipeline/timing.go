package pipeline

import (
	"fmt"
	"math/bits"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// Time is stage C of the layered model: the timing recurrence of cfg
// over tr, reading cache latencies and BTB redirects from a (Annotate
// over tr with cfg's caches and BTB) and mispredictions from miss (one
// bit per conditional branch, see Oracle; nil means none). It performs
// no cache, BTB or predictor work, so a scale sweep annotates and
// predicts once and calls Time per scale. Time panics if a or miss was
// made for a different trace or machine.
func Time(cfg Config, tr trace.Replayable, a *Annotation, miss *bp.MispredictMap) Result {
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
	// this far behind the last retirement, which keeps fetch requests
	// within a width-limiter window of the fetch frontier.
	fetchLag uint64

	// regReady is indexed by any uint8 register, so it needs no bounds
	// check. The NoReg entry is zeroed after each destination write, so
	// operand and destination fields need no NoReg test.
	regReady [1 << 8]uint64

	// Ring buffers holding per-entry release cycles for each bounded
	// structure: an instruction cannot claim entry i%N until the
	// previous holder released it.
	robRelease, schedRelease, lqRelease, sqRelease []uint64
	robIdx, schedIdx, lqIdx, sqIdx                 int

	fetchLim, retireLim frontierLimiter
	issueLim            *ringLimiter
	fwd                 *storeForwarder

	fetchReady uint64 // earliest cycle fetch may proceed (redirects)
	lastRetire uint64
	lastCycle  uint64

	insts, k, mispreds uint64 // k counts conditional branches
}

// newTimer returns a timer for cfg; iLat and dLat map the annotation's
// serving depths to latencies. It panics if cfg fails Validate.
func newTimer(cfg Config, iLat, dLat [maxDepths]uint64) *timer {
	cfg.mustValidate()
	window := widthWindow(cfg)
	return &timer{
		cfg:          cfg,
		iLat:         iLat,
		dLat:         dLat,
		fetchLag:     uint64(cfg.ROBSize) + cfg.FrontDepth + window/2,
		robRelease:   make([]uint64, cfg.ROBSize),
		schedRelease: make([]uint64, cfg.SchedSize),
		lqRelease:    make([]uint64, cfg.LQSize),
		sqRelease:    make([]uint64, cfg.SQSize),
		fetchLim:     newFrontierLimiter(cfg.FetchWidth),
		issueLim:     newRingLimiter(cfg.IssueWidth, window),
		retireLim:    newFrontierLimiter(cfg.RetireWidth),
		fwd:          newStoreForwarder(cfg.SQSize),
	}
}

// block times blk given its annotation records rec and the run's
// misprediction map (indexed by the run-wide conditional branch count).
// The hot scalars live in locals for the loop and are written back.
func (t *timer) block(blk []trace.Inst, rec []uint8, miss *bp.MispredictMap) {
	cfg := &t.cfg
	rec = rec[:len(blk)]
	fetchReady, lastRetire, lastCycle := t.fetchReady, t.lastRetire, t.lastCycle
	robIdx, schedIdx, lqIdx, sqIdx := t.robIdx, t.schedIdx, t.lqIdx, t.sqIdx
	k, mispreds := t.k, t.mispreds
	fetchLim, retireLim := t.fetchLim, t.retireLim
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
		fetch := fetchLim.reserve(maxU(fetchReady, floor)) + t.iLat[r&recIDepth]

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
		ready := max(dispatch, regReady[inst.SrcRegs[0]], regReady[inst.SrcRegs[1]])
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
		regReady[inst.DstReg] = done
		regReady[trace.NoReg] = 0

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
		retire := retireLim.reserve(maxU(done+1, lastRetire))
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
	t.fetchLim, t.retireLim = fetchLim, retireLim
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

// minWidthWindow is the smallest width-limiter ring, in cycles.
const minWidthWindow = 1 << 15

// widthWindow returns cfg's width-limiter ring size in cycles: the
// smallest power of two of at least minWidthWindow with
// ROBSize+FrontDepth <= window/2. That bound keeps fetch requests
// within a window of the fetch frontier (see frontierLimiter); every
// scale of Skylake up to 73x keeps the minimum.
func widthWindow(cfg Config) uint64 {
	w := uint64(minWidthWindow)
	for uint64(cfg.ROBSize)+cfg.FrontDepth > w/2 {
		w *= 2
	}
	return w
}

// frontierLimiter caps events per cycle for a non-decreasing request
// stream. It claims exactly what refLimiter claims for that stream from
// two words of state: the latest claimed cycle and its count.
//
// With requests that never decrease, every cycle from a request up to
// the latest claim is full (each was claimed in order until it filled),
// and no cycle past the latest claim has been claimed. So the first
// cycle >= want with a free slot is want itself when it lies past the
// latest claim, else the latest claim while it has room, else the cycle
// after it. The ring gives the same answer provided no request reads a
// slot a newer cycle owns, i.e. the latest claim is less than a window
// past every request.
//
// Retirement requests max(done+1, lastRetire), never below its own
// previous claim, so the latest claim never passes a request. Fetch
// requests max(fetchReady, lastRetire-fetchLag), and both terms only
// grow. Fetch's latest claim r is the previous instruction's, which
// dispatched at least FrontDepth cycles after r and retired at
// lastRetire, so r < lastRetire-FrontDepth and r - want < fetchLag -
// FrontDepth = ROBSize + window/2 <= window by widthWindow's sizing
// rule.
type frontierLimiter struct {
	cur, count, limit uint64
	last              uint64 // the previous request
}

func newFrontierLimiter(limit int) frontierLimiter {
	return frontierLimiter{limit: uint64(limit)}
}

// reserve claims the first cycle >= want with a free slot. A request
// below the previous one breaks the limiter's exactness, so reserve
// panics rather than time it.
func (w *frontierLimiter) reserve(want uint64) uint64 {
	if want < w.last {
		panic("pipeline: width-limiter requests decreased")
	}
	w.last = want
	if want > w.cur {
		w.cur, w.count = want, 0
	}
	if w.count == w.limit {
		w.cur, w.count = w.cur+1, 0
	}
	w.count++
	return w.cur
}

// ringLimiter caps events per cycle for any request stream: a ring of
// per-cycle counts over the last window cycles, where a request for an
// older cycle reads whichever cycle currently owns its slot. It claims
// exactly what refLimiter claims, without refLimiter's eager clearing:
// a slot's count belongs to the latest cycle at or below the frontier
// (lastSeen) that maps to the slot, and each slot holds that cycle's
// window epoch (cycle / window) beside its count in one word,
// epoch<<16 | count, reading as zero when the epoch is no longer the
// owner's. Issue requests jitter behind the frontier, so issue needs it.
type ringLimiter struct {
	slots    []uint64
	limit    uint64
	shift    uint   // log2(window)
	mask     uint64 // window - 1
	lastSeen uint64 // highest cycle requested or probed so far
}

func newRingLimiter(limit int, window uint64) *ringLimiter {
	return &ringLimiter{
		slots: make([]uint64, window),
		limit: uint64(limit),
		shift: uint(bits.TrailingZeros64(window)),
		mask:  window - 1,
	}
}

// reserve claims the first cycle >= want with a free slot.
func (w *ringLimiter) reserve(want uint64) uint64 {
	for c := want; ; c++ {
		if c > w.lastSeen {
			w.lastSeen = c
		}
		// The slot's owner is the latest cycle <= lastSeen congruent to
		// c: c itself unless c is a full window behind the frontier.
		epoch := c >> w.shift
		if c+w.mask < w.lastSeen {
			epoch = (w.lastSeen - (w.lastSeen-c)&w.mask) >> w.shift
		}
		s := &w.slots[c&w.mask]
		v := *s
		if v>>countBits != epoch {
			v = epoch << countBits
		}
		if v&(1<<countBits-1) < w.limit {
			*s = v + 1
			return c
		}
	}
}

// countBits is the width of a ringLimiter slot's count, which bounds
// every width (MaxWidth).
const countBits = 16

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
