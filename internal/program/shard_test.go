package program

import (
	"context"
	"runtime"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
)

// earlyPayload returns after a fixed instruction count, well under any
// test budget, exercising the short-trace assembly path.
func earlyPayload(e *Emitter) {
	for e.Running() && e.InstCount() < 7777 {
		e.Compute(5)
		e.Cond(1, e.Rand().Bool(0.3))
	}
}

func assertSameBuffer(t *testing.T, got, want *trace.Buffer, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("%s: instruction %d differs: %+v != %+v", label, i, got.At(i), want.At(i))
		}
	}
}

// mustRecord is Record under the background context, failing the test
// on error.
func mustRecord(t testing.TB, seed, budget uint64, payload Payload, req Request) Recording {
	t.Helper()
	rec, err := Record(context.Background(), seed, budget, payload, req)
	if err != nil {
		t.Fatalf("Record(%+v): %v", req, err)
	}
	return rec
}

// Sharded recording's whole contract: byte-identical to sequential
// recording at any shard count, including counts that do not divide the
// budget and counts exceeding it.
func TestRecordShardedByteIdentical(t *testing.T) {
	const budget = 50_000
	want := record(t, 42, budget, countingPayload)
	pool := engine.New(4)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		got := mustRecord(t, 42, budget, countingPayload, Request{Shards: shards, Pool: pool}).Buffer()
		assertSameBuffer(t, got, want, "shards="+itoa(shards))
	}
	// nil pool selects a default pool.
	assertSameBuffer(t, mustRecord(t, 42, budget, countingPayload, Request{Shards: 3}).Buffer(), want, "nil pool")
	// More shards than instructions degrades to one instruction per
	// shard (kept tiny: each shard replays its prefix).
	tiny := record(t, 42, 100, countingPayload)
	assertSameBuffer(t, mustRecord(t, 42, 100, countingPayload, Request{Shards: 137, Pool: pool}).Buffer(), tiny, "shards>budget")
}

func TestRecordShardedEarlyReturn(t *testing.T) {
	const budget = 60_000
	want := record(t, 9, budget, earlyPayload)
	if uint64(want.Len()) >= budget {
		t.Fatal("test payload should end before the budget")
	}
	pool := engine.New(3)
	for _, shards := range []int{2, 4, 9} {
		got := mustRecord(t, 9, budget, earlyPayload, Request{Shards: shards, Pool: pool}).Buffer()
		assertSameBuffer(t, got, want, "early return")
	}
}

func TestRecordShardedZeroBudget(t *testing.T) {
	if got := mustRecord(t, 1, 0, countingPayload, Request{Shards: 4, Pool: engine.New(2)}).Buffer(); got.Len() != 0 {
		t.Fatalf("zero budget recorded %d instructions", got.Len())
	}
}

// trace.Limit used to re-wrap streams in a FuncStream that dropped the
// Closer, so CloseStream on the limited stream silently leaked the
// generator goroutine behind it. The wrapper must release the producer.
func TestLimitedStreamCloseReleasesProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := Run(context.Background(), uint64(i), 1<<40, countingPayload)
		limited := trace.Limit(s, 10)
		var inst trace.Inst
		for limited.Next(&inst) {
		}
		if err := trace.CloseStream(limited); err != nil {
			t.Fatalf("CloseStream: %v", err)
		}
	}
	// Producers exit asynchronously after the cancel; give them a beat.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+5 {
		t.Errorf("goroutines grew from %d to %d: limited streams leak producers", before, n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
