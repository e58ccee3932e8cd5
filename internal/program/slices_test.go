package program

import (
	"testing"

	"branchlab/internal/engine"
)

// Slice-granular recording: concatenated slices are byte-identical to
// a sequential recording at any (SliceLen, Shards) combination, and
// every slice but the last is exactly SliceLen long with its own
// backing array.
func TestRecordSlicesByteIdentical(t *testing.T) {
	const budget = 50_000
	want := record(t, 42, budget, countingPayload)
	pool := engine.New(4)
	for _, sliceLen := range []uint64{0, 1000, 4096, 7777, budget, budget * 2} {
		for _, shards := range []int{1, 2, 3, 7} {
			rec := mustRecord(t, 42, budget, countingPayload, Request{SliceLen: sliceLen, Shards: shards, Pool: pool})
			label := "sliceLen=" + itoa(int(sliceLen)) + "/shards=" + itoa(shards)
			assertSameBuffer(t, rec.Buffer(), want, label)
			eff := sliceLen
			if eff == 0 || eff > budget {
				eff = budget
			}
			for i, a := range rec.Slices {
				if i < len(rec.Slices)-1 && uint64(len(a)) != eff {
					t.Fatalf("%s: slice %d has %d insts, want %d", label, i, len(a), eff)
				}
				if uint64(cap(a)) > eff {
					t.Fatalf("%s: slice %d capacity %d exceeds slice length %d (not independently owned)",
						label, i, cap(a), eff)
				}
			}
		}
	}
}

// A ranged recording is the cache's evicted-slice refill: any [Lo, Hi)
// window must reproduce exactly that range of the full recording.
func TestRecordRangeByteIdentical(t *testing.T) {
	const budget = 30_000
	want := record(t, 7, budget, countingPayload)
	for _, r := range [][2]uint64{
		{0, budget}, {0, 1}, {1, 2}, {12345, 23456}, {budget - 1, budget},
		{20_000, budget + 500}, // Hi clamps to the budget
	} {
		got := mustRecord(t, 7, budget, countingPayload, Request{Lo: r[0], Hi: r[1]}).Buffer()
		hi := r[1]
		if hi > budget {
			hi = budget
		}
		if uint64(got.Len()) != hi-r[0] {
			t.Fatalf("range [%d,%d): got %d insts, want %d", r[0], r[1], got.Len(), hi-r[0])
		}
		for i := 0; i < got.Len(); i++ {
			if got.At(i) != want.At(int(r[0])+i) {
				t.Fatalf("range [%d,%d): instruction %d differs", r[0], r[1], i)
			}
		}
	}
	if rec := mustRecord(t, 7, budget, countingPayload, Request{Lo: 10, Hi: 10}); rec.Slices != nil {
		t.Fatalf("empty range returned %d arrays", len(rec.Slices))
	}
}

// Early-ending payloads must trim trailing slices the same way a
// sequential recording trims its buffer, at any shard count.
func TestRecordSlicesEarlyReturn(t *testing.T) {
	const budget = 60_000
	want := record(t, 9, budget, earlyPayload)
	if uint64(want.Len()) >= budget {
		t.Fatal("test payload should end before the budget")
	}
	pool := engine.New(3)
	for _, shards := range []int{1, 2, 4, 9} {
		rec := mustRecord(t, 9, budget, earlyPayload, Request{SliceLen: 1000, Shards: shards, Pool: pool})
		assertSameBuffer(t, rec.Buffer(), want, "early/shards="+itoa(shards))
		if last := rec.Slices[len(rec.Slices)-1]; len(last) == 0 {
			t.Fatalf("shards=%d: trailing empty slice kept", shards)
		}
	}
}

func TestRecordSlicesZeroBudget(t *testing.T) {
	if rec := mustRecord(t, 1, 0, countingPayload, Request{SliceLen: 100, Shards: 4, Pool: engine.New(2)}); len(rec.Slices) != 0 {
		t.Fatalf("zero budget recorded %d slices", len(rec.Slices))
	}
}
