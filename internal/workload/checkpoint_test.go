package workload

import (
	"testing"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
)

// The slice-local checkpoint contract, property-tested over the whole
// registry: for every workload, resuming from any captured checkpoint
// is byte-identical to skimming from zero, at checkpoint spacings of
// one slice, three slices and beyond the trace length (no checkpoints
// at all — the fallback regime). Runs under -race in CI's slow lane.
func TestCheckpointResumeByteIdenticalAllWorkloads(t *testing.T) {
	const budget = 60_000
	const sliceLen = 15_000
	spacings := []uint64{sliceLen, 3 * sliceLen, budget * 2}
	for _, s := range append(SPECint2017Like(), LCFLike()...) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			want := record(t, s, 0, budget)
			for _, every := range spacings {
				rec := recordReq(t, s, 0, budget, program.Request{SliceLen: sliceLen, CkptEvery: every})
				assertJoinEquals(t, rec.Slices, want, s.Name)
				cks := rec.Ckpts
				if every > budget {
					if len(cks) != 0 {
						t.Fatalf("spacing %d > budget captured %d checkpoints", every, len(cks))
					}
					continue
				}
				if len(cks) == 0 {
					t.Fatalf("spacing %d captured no checkpoints", every)
				}
				for i := range cks {
					ck := &cks[i]
					// A window starting at the capture point and one
					// starting mid-slice beyond it.
					for _, lo := range []uint64{ck.At, ck.At + 7000} {
						hi := lo + 4000
						if hi > budget {
							hi = budget
						}
						if lo >= hi {
							continue
						}
						got := recordReq(t, s, 0, budget, program.Request{Lo: lo, Hi: hi, From: cks[i : i+1]})
						if !got.Resumed {
							t.Fatalf("window [%d,%d) did not resume from ck@%d", lo, hi, ck.At)
						}
						for j, inst := range got.Slices[0] {
							if inst != want.At(int(lo)+j) {
								t.Fatalf("resume ck@%d window [%d,%d): inst %d differs", ck.At, lo, hi, j)
							}
						}
					}
				}
			}
		})
	}
}

// Checkpoint capture must not depend on the shard count, and sharded
// re-recording from checkpoints must assemble the identical trace.
func TestCheckpointShardedRecordingByteIdentical(t *testing.T) {
	const budget = 80_000
	pool := engine.New(4)
	for _, name := range []string{"605.mcf_s", "game"} {
		s := mustSpec(t, name)
		want := record(t, s, 0, budget)
		rec := recordReq(t, s, 0, budget, program.Request{SliceLen: 20_000, CkptEvery: 20_000})
		assertJoinEquals(t, rec.Slices, want, name)
		cks := rec.Ckpts
		if len(cks) == 0 {
			t.Fatalf("%s: no checkpoints captured", name)
		}
		shardedCks := recordReq(t, s, 0, budget, program.Request{SliceLen: 20_000, Shards: 4, Pool: pool, CkptEvery: 20_000}).Ckpts
		if len(shardedCks) != len(cks) {
			t.Fatalf("%s: sharded capture found %d checkpoints, sequential %d", name, len(shardedCks), len(cks))
		}
		for i := range cks {
			if cks[i].At != shardedCks[i].At || cks[i].Rng != shardedCks[i].Rng {
				t.Fatalf("%s: checkpoint %d differs between shard counts", name, i)
			}
		}
		for _, shards := range []int{2, 5} {
			got := recordReq(t, s, 0, budget, program.Request{Shards: shards, Pool: pool, From: cks}).Buffer()
			if got.Len() != want.Len() {
				t.Fatalf("%s shards=%d: length %d, want %d", name, shards, got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.At(i) != want.At(i) {
					t.Fatalf("%s shards=%d: instruction %d differs", name, shards, i)
				}
			}
		}
	}
}

func assertJoinEquals(t *testing.T, arrs [][]trace.Inst, want *trace.Buffer, label string) {
	t.Helper()
	n := 0
	for _, a := range arrs {
		for _, inst := range a {
			if inst != want.At(n) {
				t.Fatalf("%s: instruction %d differs from reference recording", label, n)
			}
			n++
		}
	}
	if n != want.Len() {
		t.Fatalf("%s: %d instructions, want %d", label, n, want.Len())
	}
}

// A checkpoint from one (input, budget) must not resume another. The
// generator state layout is identical across inputs, so the RNG/emitter
// state is what makes the bytes diverge — this asserts the documented caller obligation
// (same triple) is what the exactness tests above actually rely on.
func TestCheckpointIsTripleSpecific(t *testing.T) {
	s := mustSpec(t, "605.mcf_s")
	const budget = 60_000
	cks := recordReq(t, s, 0, budget, program.Request{SliceLen: 15_000, CkptEvery: 15_000}).Ckpts
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	ck := &cks[len(cks)-1]
	// Same spec, different budget: the payload's derived structure
	// (rareStatic, phaseLen) differs, so bytes from a resume are not
	// comparable; the contract only promises exactness for the captured
	// triple. Resume may succeed mechanically — verify we are NOT
	// byte-identical to the other budget's reference, i.e. the test
	// above is not vacuously passing.
	other := record(t, s, 0, budget*2)
	rec := recordReq(t, s, 0, budget*2, program.Request{Lo: ck.At, Hi: ck.At + 2000, From: []program.Checkpoint{*ck}})
	if !rec.Resumed {
		return // rejected outright: equally acceptable
	}
	same := true
	for j, inst := range rec.Slices[0] {
		if inst != other.At(int(ck.At)+j) {
			same = false
			break
		}
	}
	if same {
		t.Skip("budgets happen to agree over this window; nothing to assert")
	}
}
