// Package program is the synthetic-program substrate: it turns a workload
// payload — ordinary Go code calling an Emitter — into a deterministic
// instruction Stream with realistic control flow, register dataflow and
// memory behaviour.
//
// The emitter is the reproduction's substitute for tracing real binaries
// (see DESIGN.md §1): every analysis in the paper consumes only
// trace-visible signals (IPs, directions, operand registers, written
// values, addresses), and the emitter produces exactly those signals under
// workload control. Payload functions run in a producer goroutine and are
// pure functions of the seed, so a (payload, seed, budget) triple always
// yields the identical trace.
package program

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// VarID names a program variable. Variables map to stable architectural
// registers so that reads and writes form honest def-use chains for the
// dependency-graph analysis.
type VarID int

// reg maps a variable to its architectural register (r8..r27, leaving
// low registers for filler code and scratch).
func (v VarID) reg() uint8 { return uint8(8 + int(v)%20) }

// Payload is a synthetic program: it calls Emitter methods until Running
// reports false.
type Payload func(e *Emitter)

const (
	batchSize    = 8192
	branchStride = 64 // bytes of IP space per static branch region
)

// Emitter records the instructions a payload produces. Methods must only
// be called from the payload goroutine.
type Emitter struct {
	rng     *xrand.Rand
	budget  uint64
	emitted uint64

	baseIP  uint64
	curIP   uint64
	callers []uint64

	batch  []trace.Inst
	out    chan []trace.Inst
	cancel chan struct{}

	// Cancellation (see cancel.go): done is ctx.Done(), nil for the
	// background context, polled only at byte-safe points.
	ctx  context.Context
	done <-chan struct{}

	// Direct mode (see Record): instructions with index < skip are
	// generated but not materialized, instructions in [skip, stopAt)
	// append to direct, and reaching stopAt unwinds the payload.
	// stopAt == 0 disables early stop; direct == nil selects the
	// batching channel path of Run. segs holds further pre-allocated
	// capacity-capped windows: when direct fills to capacity it is
	// retired to filled and the next window takes over, so one replay
	// materializes many independently owned slice arrays. nextStop is
	// the next instruction count at which emit leaves its fast path:
	// stopAt, or the next cancellation poll (see armStop).
	skip     uint64
	stopAt   uint64
	nextStop uint64
	direct   []trace.Inst
	segs     [][]trace.Inst
	filled   [][]trace.Inst

	// Checkpointing (see checkpoint.go): with ckptEvery > 0 the emitter
	// captures a Checkpoint at the first payload safe point at or after
	// each multiple of ckptEvery, storing only captures at index >=
	// ckptLo (sharded recorders skim the prefix but store only their own
	// range). resuming is set while a restored payload state waits for
	// the payload to claim it via Checkpointable; emitting in that
	// window is a contract violation and aborts the resume.
	ckptEvery   uint64
	nextCkpt    uint64
	ckptLo      uint64
	ckpts       []Checkpoint
	ckptOwner   CheckpointPayload
	resuming    bool
	resumeState []uint64

	scratch uint8 // rotating scratch register for filler code
}

// stopSignal unwinds the payload goroutine when the consumer closes the
// stream early.
type stopSignal struct{}

// Rand returns the emitter's deterministic random source. Payloads must
// draw all randomness from it.
func (e *Emitter) Rand() *xrand.Rand { return e.rng }

// Running reports whether the payload should keep generating. Payloads
// use it as their main loop condition; inner kernels of bounded size may
// overshoot by a fraction of a batch, which the stream truncates.
func (e *Emitter) Running() bool { return e.emitted < e.budget }

// Abort unwinds the payload with a typed error instead of a panic.
// Record returns it as its error and Run's stream reports it from Err;
// the partially generated bytes are discarded, never returned. Payloads
// use it for unreachable-configuration guards that should fail the run
// loudly without killing the process.
func (e *Emitter) Abort(err error) { engine.Abort(err) }

// InstCount returns the number of instructions emitted so far.
func (e *Emitter) InstCount() uint64 { return e.emitted }

// Budget returns the total instruction budget of this run. Payloads use
// it to scale structures that the paper defines per trace length (e.g.
// static code footprint per 30M-instruction slice).
func (e *Emitter) Budget() uint64 { return e.budget }

func (e *Emitter) emit(inst trace.Inst) {
	if e.resuming {
		// A resumed emitter whose payload emits before claiming the
		// saved state via Checkpointable would silently generate wrong
		// bytes: the payload restarted from its zero state while the
		// counters and RNG continued mid-trace. Abort to the skim path.
		//lint:ignore errcontract resumeAbort is a typed unwind recovered at the Record* run boundary and surfaced as ErrBadCheckpoint, never escaping to callers
		panic(resumeAbort{fmt.Errorf("%w: payload emitted before Checkpointable", ErrBadCheckpoint)})
	}
	if e.emitted >= e.budget {
		return
	}
	if e.emitted >= e.skip {
		if e.direct != nil {
			e.direct = append(e.direct, inst)
			if len(e.direct) == cap(e.direct) && len(e.segs) > 0 {
				e.filled = append(e.filled, e.direct)
				e.direct = e.segs[0]
				e.segs = e.segs[1:]
				// Window retirement is a byte-safe point: a cancel here
				// discards every window, full and partial alike.
				e.checkCanceled()
			}
		} else {
			e.batch = append(e.batch, inst)
			if len(e.batch) >= batchSize {
				e.flush()
			}
		}
	}
	e.emitted++
	if e.emitted >= e.nextStop {
		e.stopOrPoll()
	}
}

// armStop sets nextStop: the range end of a direct recording, or the
// next multiple of batchSize when a context can cancel. Polling every
// batchSize instructions bounds the latency of a cancellation for
// payloads that declare no safe points, in the skimmed prefix as well
// as the materialized range.
func (e *Emitter) armStop() {
	e.nextStop = ^uint64(0)
	if e.done != nil {
		e.nextStop = (e.emitted/batchSize + 1) * batchSize
	}
	if e.stopAt != 0 && e.stopAt < e.nextStop {
		e.nextStop = e.stopAt
	}
}

// stopOrPoll is emit's slow path: it unwinds the payload once the range
// is complete and otherwise polls for cancellation. Every instruction is
// a byte-safe point here because a cancelled recording discards all of
// its windows.
func (e *Emitter) stopOrPoll() {
	if e.stopAt != 0 && e.emitted >= e.stopAt {
		//lint:ignore errcontract stopSignal is a typed unwind for a clean early stop, recovered at the Record* run boundary; it never escapes to callers
		panic(stopSignal{})
	}
	e.checkCanceled()
	e.armStop()
}

func (e *Emitter) flush() {
	if len(e.batch) == 0 {
		return
	}
	select {
	case e.out <- e.batch:
	case <-e.cancel:
		//lint:ignore errcontract stopSignal is a typed unwind for a clean early stop, recovered at the Record* run boundary; it never escapes to callers
		panic(stopSignal{})
	case <-e.done:
		// Context cancellation: unlike a consumer Close (stopSignal,
		// a clean early stop), this is an error the stream reports.
		e.Abort(&canceledError{cause: e.ctx.Err()})
	}
	e.batch = make([]trace.Inst, 0, batchSize)
}

// BranchIP returns the stable instruction pointer assigned to branch id.
func (e *Emitter) BranchIP(id int) uint64 {
	return e.baseIP + uint64(id)*branchStride
}

// Compute emits n filler computation instructions (ALU/MUL/FP mix) with
// plausible register pressure on the low registers.
func (e *Emitter) Compute(n int) {
	for i := 0; i < n && e.Running(); i++ {
		kind := trace.KindALU
		switch e.rng.Intn(16) {
		case 0:
			kind = trace.KindMul
		case 1:
			kind = trace.KindFP
		}
		dst := e.scratch
		e.scratch = (e.scratch + 1) & 7
		e.emit(trace.Inst{
			IP:       e.curIP,
			Kind:     kind,
			DstReg:   dst,
			DstValue: e.rng.Uint64() & 0xFFFF,
			SrcRegs:  [2]uint8{(dst + 1) & 7, (dst + 3) & 7},
		})
		e.curIP += 4
	}
}

// SetVar emits an ALU instruction writing value into v's register. The
// written value is visible to the register-value analysis (Fig 10) and
// the def-use chain to any branch reading v (Table III / Fig 6).
func (e *Emitter) SetVar(v VarID, value uint64) {
	e.emit(trace.Inst{
		IP:       e.curIP,
		Kind:     trace.KindALU,
		DstReg:   v.reg(),
		DstValue: value,
		SrcRegs:  [2]uint8{v.reg(), trace.NoReg},
	})
	e.curIP += 4
}

// SetVarLoad is SetVar through memory: a load from addr defines v.
func (e *Emitter) SetVarLoad(v VarID, addr, value uint64) {
	e.emit(trace.Inst{
		IP:       e.curIP,
		Kind:     trace.KindLoad,
		MemAddr:  addr,
		DstReg:   v.reg(),
		DstValue: value,
		SrcRegs:  [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP += 4
}

// Load emits a load from addr into a scratch register.
func (e *Emitter) Load(addr uint64) {
	dst := e.scratch
	e.scratch = (e.scratch + 1) & 7
	e.emit(trace.Inst{
		IP:      e.curIP,
		Kind:    trace.KindLoad,
		MemAddr: addr,
		DstReg:  dst,
		SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP += 4
}

// Store emits a store to addr.
func (e *Emitter) Store(addr uint64) {
	e.emit(trace.Inst{
		IP:      e.curIP,
		Kind:    trace.KindStore,
		MemAddr: addr,
		DstReg:  trace.NoReg,
		SrcRegs: [2]uint8{e.scratch, trace.NoReg},
	})
	e.curIP += 4
}

// Cond emits the conditional branch id with the given resolved direction.
// reads lists the variables the branch condition depends on; they become
// the branch's source registers. The branch target is forward.
func (e *Emitter) Cond(id int, taken bool, reads ...VarID) {
	ip := e.BranchIP(id)
	e.condAt(ip, ip+branchStride/2, taken, reads)
}

// CondBackward emits branch id as a backward (loop-style) branch, the
// shape the IMLI component of TAGE-SC-L keys on.
func (e *Emitter) CondBackward(id int, taken bool, reads ...VarID) {
	ip := e.BranchIP(id)
	target := ip - 8*branchStride
	if target > ip { // underflow guard
		target = e.baseIP
	}
	e.condAt(ip, target, taken, reads)
}

func (e *Emitter) condAt(ip, target uint64, taken bool, reads []VarID) {
	inst := trace.Inst{
		IP:      ip,
		Kind:    trace.KindCondBr,
		Target:  target,
		Taken:   taken,
		DstReg:  trace.NoReg,
		SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	}
	for i, v := range reads {
		if i >= 2 {
			break
		}
		inst.SrcRegs[i] = v.reg()
	}
	e.emit(inst)
	if taken {
		e.curIP = target
	} else {
		e.curIP = ip + 4
	}
}

// Call emits a direct call into function fn's region and tracks the
// return address.
func (e *Emitter) Call(fn int) {
	ip := e.curIP
	target := e.baseIP + 1<<20 + uint64(fn)*4096
	e.emit(trace.Inst{
		IP: ip, Kind: trace.KindCall, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.callers = append(e.callers, ip+4)
	e.curIP = target
}

// Ret returns from the innermost Call; without one it is a no-op jump.
func (e *Emitter) Ret() {
	if len(e.callers) == 0 {
		return
	}
	target := e.callers[len(e.callers)-1]
	e.callers = e.callers[:len(e.callers)-1]
	e.emit(trace.Inst{
		IP: e.curIP, Kind: trace.KindRet, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP = target
}

// Jump emits an unconditional direct jump to branch id's region.
func (e *Emitter) Jump(id int) {
	target := e.BranchIP(id)
	e.emit(trace.Inst{
		IP: e.curIP, Kind: trace.KindJump, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP = target
}

// Stream is the consumer side of a running payload. It implements
// trace.Stream and trace.Closer.
type Stream struct {
	out    chan []trace.Inst
	cancel chan struct{}
	cur    []trace.Inst
	idx    int
	once   sync.Once
	err    error
}

// Err returns the typed error that terminated the producer: a
// cancellation (matching ErrCanceled), a payload Abort, or a payload
// panic converted to an error. It is nil for a clean end of stream or
// a consumer-initiated Close. Valid only after Next/NextBlock report
// end of stream or after Close — a stream that ended early with a
// non-nil Err delivered a truncated prefix, and its bytes must be
// discarded.
func (s *Stream) Err() error { return s.err }

// Run starts payload in a producer goroutine and returns the consuming
// stream. The stream yields at most budget instructions. Callers should
// Close the stream if they stop early; draining it fully also releases
// the producer. When ctx is done the producer unwinds at its next
// byte-safe point, the stream ends, and Err reports a typed
// cancellation. A panicking payload likewise ends the stream with Err
// set instead of crashing the process.
func Run(ctx context.Context, seed, budget uint64, payload Payload) *Stream {
	s := &Stream{
		out:    make(chan []trace.Inst, 2),
		cancel: make(chan struct{}),
	}
	e := &Emitter{
		rng:    xrand.New(seed),
		budget: budget,
		baseIP: 0x400000,
		curIP:  0x400000,
		batch:  make([]trace.Inst, 0, batchSize),
		out:    s.out,
		cancel: s.cancel,
	}
	e.bindContext(ctx)
	e.armStop()
	go func() {
		// The close publishes s.err to the consumer: channel close is the
		// happens-before edge Err relies on.
		defer close(s.out)
		s.err = runPayload(e, func(e *Emitter) {
			payload(e)
			e.flush()
		})
	}()
	return s
}

// runPayload runs payload on e and returns the error its unwind
// carries (see unwindErr).
func runPayload(e *Emitter, payload Payload) (err error) {
	defer func() { err = unwindErr(recover()) }()
	payload(e)
	return nil
}

// unwindErr converts what a recording boundary recovered into the
// recording's error: nil for a normal return or a clean early stop
// (range complete, consumer Close), the typed error of a failed resume,
// a cancellation or a payload Abort, and a wrapped panic value for
// anything else — a payload bug fails the recording, never the process.
func unwindErr(r any) error {
	switch r := r.(type) {
	case nil, stopSignal:
		return nil
	case resumeAbort:
		return r.err
	}
	if err := engine.Recovered(r); err != nil {
		return err
	}
	return fmt.Errorf("program: payload panicked: %v\n%s", r, debug.Stack())
}

// Next implements trace.Stream.
func (s *Stream) Next(inst *trace.Inst) bool {
	for s.idx >= len(s.cur) {
		batch, ok := <-s.out
		if !ok {
			return false
		}
		s.cur = batch
		s.idx = 0
	}
	*inst = s.cur[s.idx]
	s.idx++
	return true
}

// NextBlock implements trace.BlockStream: it hands the producer's
// batches to the consumer directly, so a block-based replay of a live
// generator copies no instructions at all.
func (s *Stream) NextBlock() []trace.Inst {
	if s.idx < len(s.cur) {
		blk := s.cur[s.idx:]
		s.idx = len(s.cur)
		return blk
	}
	batch, ok := <-s.out
	if !ok {
		return nil
	}
	s.cur = batch
	s.idx = len(batch)
	return batch
}

// Close implements trace.Closer: it releases the producer goroutine.
func (s *Stream) Close() error {
	s.once.Do(func() {
		close(s.cancel)
		// Drain so the producer's in-flight send completes.
		for range s.out {
		}
	})
	return nil
}

// Request selects what Record materializes from one (seed, budget,
// payload) trace. The zero value records the whole trace into one
// array, sequentially, capturing no checkpoints.
type Request struct {
	// Lo and Hi bound the materialized range [Lo, Hi); Hi == 0 or past
	// the budget selects the end of the trace.
	Lo, Hi uint64

	// SliceLen > 0 materializes the range as consecutive, independently
	// owned arrays of SliceLen instructions starting at Lo (the last may
	// be shorter): the trace cache's slices, each evictable on its own.
	// SliceLen == 0 materializes one array.
	SliceLen uint64

	// Shards > 1 splits the generation across Pool workers (nil selects
	// a default pool): slice-aligned groups of slices with SliceLen > 0,
	// disjoint windows of the one shared array otherwise. Each shard
	// replays the payload from the trace seed, skims (or resumes past)
	// the instructions before its range, and stops at its end.
	Shards int
	Pool   *engine.Pool

	// CkptEvery > 0 captures payload checkpoints within the range at
	// that spacing: at the first safe point at or after each multiple
	// (see checkpoint.go).
	CkptEvery uint64

	// From holds checkpoints of an earlier recording of the same
	// triple, sorted by At. Each shard resumes from the nearest one at
	// or below its range start (strictly below when capturing, so the
	// resume point's own capture lies outside the range) instead of
	// generating from instruction zero.
	From []Checkpoint
}

// Recording is what Record materialized.
type Recording struct {
	// Slices are the consecutive arrays of the range: one array with
	// SliceLen == 0, SliceLen-long arrays otherwise. A payload that
	// returns before its budget ends the recording early, so the last
	// array may be short and trailing arrays absent.
	Slices [][]trace.Inst
	// Ckpts are the checkpoints captured within the range, sorted by
	// At; empty unless CkptEvery > 0 and the payload is checkpointable.
	Ckpts []Checkpoint
	// Resumed reports that a shard started from a checkpoint in From
	// rather than from instruction zero.
	Resumed bool
}

// Buffer returns the recording as one buffer: zero-copy for a single
// array.
func (r Recording) Buffer() *trace.Buffer {
	if len(r.Slices) == 1 {
		return trace.FromSlice(r.Slices[0])
	}
	var n int
	for _, s := range r.Slices {
		n += len(s)
	}
	all := make([]trace.Inst, 0, n)
	for _, s := range r.Slices {
		all = append(all, s...)
	}
	return trace.FromSlice(all)
}

// Record materializes instructions [req.Lo, req.Hi) of the (seed,
// budget, payload) trace, byte-identical to the same range of a
// sequential whole recording for every Request: payloads are pure
// functions of the seed, so every replay of the trace, whether it is
// sharded, sliced, skimmed or resumed, emits the identical instruction
// sequence. See DESIGN.md §6 for why prefix replay rather than
// per-slice reseeding is what keeps arbitrary payloads exact.
//
// Every mode is one algorithm: the range is cut into pre-allocated,
// capacity-capped windows, and each shard generates its contiguous
// group of windows synchronously, with no producer goroutine and no
// channel. A shard resumes from the nearest usable checkpoint in
// req.From and falls back to generating from instruction zero only when
// that checkpoint cannot resume the generation (ErrBadCheckpoint).
// Every other failure is the recording's: cancellation of ctx (polled
// at payload safe points and every batchSize instructions), a payload
// Abort, or a payload panic returns a typed error and no arrays.
func Record(ctx context.Context, seed, budget uint64, payload Payload, req Request) (Recording, error) {
	lo, hi := req.Lo, req.Hi
	if hi == 0 || hi > budget {
		hi = budget
	}
	if lo >= hi {
		return Recording{}, nil
	}
	n := hi - lo
	unit := req.SliceLen
	var backing []trace.Inst
	if unit == 0 {
		// One array: shards write disjoint windows of it in place.
		unit = n
		if s := uint64(req.Shards); s > 1 {
			unit = (n + s - 1) / s
		}
		backing = make([]trace.Inst, n)
	}
	if unit > n {
		unit = n
	}
	nWin := int((n + unit - 1) / unit)
	capOf := func(i int) uint64 { return min(unit, n-uint64(i)*unit) }
	wins := make([][]trace.Inst, nWin)
	for i := range wins {
		if backing != nil {
			a := uint64(i) * unit
			wins[i] = backing[a : a : a+capOf(i)]
		} else {
			wins[i] = make([]trace.Inst, 0, capOf(i))
		}
	}

	shards := max(1, min(req.Shards, nWin))
	per := (nWin + shards - 1) / shards
	shards = (nWin + per - 1) / per
	type part struct {
		filled  [][]trace.Inst
		ckpts   []Checkpoint
		resumed bool
	}
	shard := func(ctx context.Context, w int) (part, error) {
		w0 := w * per
		w1 := min(w0+per, nWin)
		slo := lo + uint64(w0)*unit
		shi := min(lo+uint64(w1)*unit, hi)
		var p part
		var err error
		p.filled, p.ckpts, p.resumed, err = recordShard(ctx, seed, budget, payload, slo, shi, wins[w0:w1], req)
		return p, err
	}
	var parts []part
	if shards == 1 {
		p, err := shard(ctx, 0)
		if err != nil {
			return Recording{}, err
		}
		parts = []part{p}
	} else {
		pool := req.Pool
		if pool == nil {
			pool = engine.New(0)
		}
		var err error
		if parts, err = engine.MapErr(ctx, pool, shards, shard); err != nil {
			if engine.IsCancel(err) && !errors.Is(err, ErrCanceled) {
				// The pool reports the caller's cause; keep the sentinel
				// every cancelled recording matches.
				err = &canceledError{cause: err}
			}
			return Recording{}, err
		}
	}

	// Workers capture within disjoint ascending ranges under the same
	// index-driven rule, so concatenation in worker order is the
	// sequential capture list.
	var rec Recording
	for w, p := range parts {
		copy(wins[w*per:], p.filled)
		rec.Ckpts = append(rec.Ckpts, p.ckpts...)
		rec.Resumed = rec.Resumed || p.resumed
	}
	// A payload that returns before exhausting the budget ends every
	// replica at the same deterministic point: the first short window is
	// the end of the trace, and every window after it is empty.
	total := uint64(0)
	for i, win := range wins {
		total += uint64(len(win))
		if uint64(len(win)) < capOf(i) {
			end := i
			if len(win) > 0 {
				end++
			}
			wins = wins[:end]
			break
		}
	}
	switch {
	case backing == nil:
		rec.Slices = wins
	case total > 0:
		rec.Slices = [][]trace.Inst{backing[:total]}
	}
	return rec, nil
}

// recordShard fills one shard's windows with [lo, hi). It resumes from
// the nearest checkpoint in req.From at or below lo — strictly below
// when capturing, because a capture at the resume point itself depends
// on where the preceding safe point fell — and regenerates from
// instruction zero only if that checkpoint cannot resume
// (ErrBadCheckpoint). Any other error fails the shard without a retry.
func recordShard(ctx context.Context, seed, budget uint64, payload Payload, lo, hi uint64, wins [][]trace.Inst, req Request) ([][]trace.Inst, []Checkpoint, bool, error) {
	at := lo
	if req.CkptEvery > 0 && lo > 0 {
		at = lo - 1
	}
	if ck := NearestCheckpoint(req.From, at); ck != nil {
		filled, cks, err := recordSegments(ctx, seed, budget, payload, lo, hi, wins, req.CkptEvery, ck)
		if !errors.Is(err, ErrBadCheckpoint) {
			return filled, cks, err == nil, err
		}
	}
	filled, cks, err := recordSegments(ctx, seed, budget, payload, lo, hi, wins, req.CkptEvery, nil)
	return filled, cks, false, err
}

// recordSegments generates instructions [lo, hi) of the (seed, budget,
// payload) trace synchronously, filling the pre-allocated
// capacity-capped windows segs in order and returning the windows that
// received instructions. The payload replays from the start with a
// freshly seeded RNG, skims the prefix without materializing it, and
// unwinds as soon as the range is full. The window capacities must sum
// to at least hi-lo so no append ever reallocates a window.
//
// ckptEvery > 0 additionally captures payload checkpoints within
// [lo, hi) at that spacing; from != nil resumes the replay at from.At
// instead of instruction zero and fails with ErrBadCheckpoint (wrapped)
// when the checkpoint cannot reproduce the generation.
func recordSegments(ctx context.Context, seed, budget uint64, payload Payload, lo, hi uint64, segs [][]trace.Inst, ckptEvery uint64, from *Checkpoint) ([][]trace.Inst, []Checkpoint, error) {
	e := &Emitter{
		rng:       xrand.New(seed),
		budget:    budget,
		baseIP:    0x400000,
		curIP:     0x400000,
		skip:      lo,
		stopAt:    hi,
		direct:    segs[0],
		segs:      segs[1:],
		ckptEvery: ckptEvery,
		nextCkpt:  ckptEvery, // never capture the trivial At=0 state
		ckptLo:    lo,
	}
	e.bindContext(ctx)
	if from != nil {
		if from.At > lo {
			return nil, nil, fmt.Errorf("%w: captured at %d, past range start %d", ErrBadCheckpoint, from.At, lo)
		}
		if err := e.restore(from); err != nil {
			return nil, nil, err
		}
		if ckptEvery > 0 {
			// The state after the safe point at from.At, as a sequential
			// recording at this spacing leaves it.
			e.nextCkpt = (from.At/ckptEvery + 1) * ckptEvery
		}
	}
	e.armStop()
	if err := runPayload(e, payload); err != nil {
		return nil, nil, err
	}
	if e.resuming {
		return nil, nil, fmt.Errorf("%w: payload never registered via Checkpointable", ErrBadCheckpoint)
	}
	return append(e.filled, e.direct), e.ckpts, nil
}
