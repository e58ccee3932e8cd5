package program

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
)

// walkState is a checkpointable state of a different shape from
// ckptState: checkpoints of walkPayload are foreign to ckptPayload and
// must be rejected by its CheckpointRestore.
type walkState struct{ x uint64 }

func (w *walkState) CheckpointSave() []uint64 { return []uint64{w.x} }

func (w *walkState) CheckpointRestore(st []uint64) bool {
	if len(st) != 1 {
		return false
	}
	w.x = st[0]
	return true
}

func walkPayload(e *Emitter) {
	st := &walkState{}
	e.Checkpointable(st)
	for e.Running() {
		e.Checkpoint()
		st.x += uint64(e.Rand().Intn(5))
		e.Compute(3)
		e.Cond(0, st.x&1 == 1)
	}
}

// requestModes is the grid of recording geometries every row of
// TestRecordRequestMatchesSequential runs under: whole array and slice
// lengths that do and do not divide the budget (including one past it),
// sequential and sharded at counts that do and do not divide the
// windows.
func requestModes(budget uint64) []Request {
	pool := engine.New(4)
	var modes []Request
	for _, sliceLen := range []uint64{0, 1000, 4096, budget + 1} {
		for _, shards := range []int{1, 3, 4} {
			modes = append(modes, Request{SliceLen: sliceLen, Shards: shards, Pool: pool})
		}
	}
	return modes
}

func modeName(r Request) string {
	return fmt.Sprintf("slice=%d/shards=%d", r.SliceLen, r.Shards)
}

// TestRecordRequestMatchesSequential is Record's whole contract in one
// table. Every combination of slice geometry, shard count, checkpoint
// source and range materializes exactly the bytes of the sequential
// whole recording over that range, as independently owned slices of
// the requested length; checkpoints captured along the way are the
// sequential capture list restricted to the range; and a checkpoint
// only ever changes how fast the bytes are produced (Resumed), never
// which bytes. Each mode also runs the failure rows (checkFailures).
func TestRecordRequestMatchesSequential(t *testing.T) {
	const budget = 50_000
	const every = 3000
	want := record(t, 42, budget, ckptPayload)
	seq := mustRecord(t, 42, budget, ckptPayload, Request{CkptEvery: every}).Ckpts
	if len(seq) == 0 {
		t.Fatal("sequential recording captured no checkpoints")
	}
	foreign := mustRecord(t, 42, budget, walkPayload, Request{CkptEvery: every}).Ckpts
	froms := []struct {
		name   string
		ckpts  []Checkpoint
		usable bool
	}{
		{"nil", nil, false},
		{"captured", seq, true},
		{"zero", []Checkpoint{{}}, false},
		{"foreign", foreign, false},
	}
	ranges := []struct {
		name   string
		lo, hi uint64
	}{
		{"whole", 0, 0},
		{"interior", 12_345, 23_456},
		{"lastpartial", budget - 777, budget + 500},
		{"empty", 10_000, 10_000},
	}
	for _, mode := range requestModes(budget) {
		checkFailures(t, mode, seq)
		for _, from := range froms {
			for _, rg := range ranges {
				for _, ckptEvery := range []uint64{0, every} {
					req := mode
					req.Lo, req.Hi, req.From, req.CkptEvery = rg.lo, rg.hi, from.ckpts, ckptEvery
					label := fmt.Sprintf("%s/from=%s/%s/every=%d", modeName(mode), from.name, rg.name, ckptEvery)
					checkRecording(t, label, mustRecord(t, 42, budget, ckptPayload, req), req, want, seq, from.usable)
				}
			}
		}
	}
}

// checkRecording asserts one TestRecordRequestMatchesSequential case.
func checkRecording(t *testing.T, label string, rec Recording, req Request, want *trace.Buffer, seq []Checkpoint, usable bool) {
	t.Helper()
	lo, hi := req.Lo, req.Hi
	if hi == 0 || hi > uint64(want.Len()) {
		hi = uint64(want.Len())
	}
	if lo >= hi {
		if rec.Slices != nil || rec.Ckpts != nil || rec.Resumed {
			t.Fatalf("%s: empty range recorded %+v", label, rec)
		}
		return
	}
	assertSameBuffer(t, rec.Buffer(), want.Slice(int(lo), int(hi)), label)
	eff := req.SliceLen
	if eff == 0 || eff > hi-lo {
		eff = hi - lo
	}
	if req.SliceLen == 0 && len(rec.Slices) != 1 {
		t.Fatalf("%s: %d arrays, want one", label, len(rec.Slices))
	}
	for i, s := range rec.Slices {
		if i < len(rec.Slices)-1 && uint64(len(s)) != eff {
			t.Fatalf("%s: slice %d has %d insts, want %d", label, i, len(s), eff)
		}
		if req.SliceLen > 0 && uint64(cap(s)) > eff {
			t.Fatalf("%s: slice %d capacity %d exceeds slice length %d (not independently owned)",
				label, i, cap(s), eff)
		}
	}
	var wantCkpts []Checkpoint
	if req.CkptEvery > 0 {
		for _, ck := range seq {
			if ck.At >= lo && ck.At < hi {
				wantCkpts = append(wantCkpts, ck)
			}
		}
	}
	if !reflect.DeepEqual(rec.Ckpts, wantCkpts) {
		t.Fatalf("%s: captured %d checkpoints, want the sequential %d in range", label, len(rec.Ckpts), len(wantCkpts))
	}
	if rec.Resumed && !usable {
		t.Fatalf("%s: resumed from an unusable checkpoint", label)
	}
	if usable && lo > seq[0].At && !rec.Resumed {
		t.Fatalf("%s: a checkpoint lies below the range but no shard resumed", label)
	}
}

// checkFailures runs the failure rows of
// TestRecordRequestMatchesSequential under one mode: every failure is
// typed and returns no arrays, and only a checkpoint error falls back.
//
//   - Cancelling a payload that declares no safe points returns
//     ErrCanceled (the poll every batchSize instructions stops it).
//   - A payload panic is a typed error, not a crash.
//   - A resumed generation that fails for another reason propagates:
//     the payload below aborts only when resumed, so a skim retry would
//     have hidden the failure behind a successful recording.
func checkFailures(t *testing.T, mode Request, cks []Checkpoint) {
	t.Helper()
	const budget = 50_000
	name := modeName(mode)
	check := func(row string, rec Recording) {
		t.Helper()
		if rec.Slices != nil || rec.Ckpts != nil {
			t.Fatalf("%s/%s: failed recording returned %d arrays, %d checkpoints", name, row, len(rec.Slices), len(rec.Ckpts))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	rec, err := Record(ctx, 1, 1_000_000, selfCancelPayload(cancel, 10_000, false), mode)
	cancel()
	check("cancel", rec)
	if !errors.Is(err, ErrCanceled) || !engine.IsCancel(err) {
		t.Fatalf("%s/cancel: err = %v, want ErrCanceled", name, err)
	}

	panicking := func(e *Emitter) {
		for e.Running() {
			if e.InstCount() >= 20_000 {
				panic("payload bug")
			}
			e.Compute(10)
		}
	}
	rec, err = Record(context.Background(), 1, budget, panicking, mode)
	check("panic", rec)
	if err == nil || engine.IsCancel(err) || errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("%s/panic: err = %v, want the payload's panic as an error", name, err)
	}

	boom := errors.New("resumed state rejected by the payload")
	abortOnResume := func(e *Emitter) {
		st := &restoreFlag{ckptState: ckptState{x: 1}}
		e.Checkpointable(st)
		if st.restored {
			e.Abort(boom)
		}
		ckptRounds(e, &st.ckptState)
	}
	req := mode
	req.Lo, req.From = 30_000, cks
	rec, err = Record(context.Background(), 42, budget, abortOnResume, req)
	check("resume-abort", rec)
	if !errors.Is(err, boom) {
		t.Fatalf("%s/resume-abort: err = %v, want the resumed payload's abort (no skim retry)", name, err)
	}
	// The same payload from zero records fine: the abort above came
	// from the resumed path alone.
	req.From = nil
	if _, err := Record(context.Background(), 42, budget, abortOnResume, req); err != nil {
		t.Fatalf("%s/resume-abort: unresumed recording failed: %v", name, err)
	}
}

// restoreFlag is ckptState that remembers being restored, so a payload
// can fail only on the resumed path.
type restoreFlag struct {
	ckptState
	restored bool
}

func (r *restoreFlag) CheckpointRestore(st []uint64) bool {
	r.restored = true
	return r.ckptState.CheckpointRestore(st)
}
