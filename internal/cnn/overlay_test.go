package cnn

import (
	"bytes"
	"errors"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// A helper saved with a smaller bucket count used to be accepted by
// Attach and then index its embedding with the overlay's wider slots,
// panicking inside core.Run (index out of range [139] with length 32).
func TestAttachRejectsMismatchedGeometry(t *testing.T) {
	small := DefaultConfig()
	small.Buckets = 16
	small.Epochs = 2
	m := NewModel(small)
	m.Train(collect(t, small, 4, 60000))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	shortHist := DefaultConfig()
	shortHist.HistLen = 32
	for _, c := range []struct {
		name   string
		helper *Model
	}{
		{"buckets", loaded},
		{"histlen", NewModel(shortHist)},
	} {
		t.Run(c.name, func(t *testing.T) {
			overlay := NewOverlay(DefaultConfig(), bp.NewStatic(true))
			err := overlay.Attach(h2pIP, c.helper)
			if !errors.Is(err, ErrGeometryMismatch) {
				t.Fatalf("Attach = %v, want ErrGeometryMismatch", err)
			}
			// Nothing was installed: the overlay runs as its base.
			core.Run(correlatedTrace(5, 20000, 0.1).Stream(), overlay)
			if overlay.HelperPredictions != 0 {
				t.Errorf("rejected helper served %d predictions", overlay.HelperPredictions)
			}
		})
	}
}

// TestOverlayPredictAllocFree pins the helper prediction path at zero
// allocations: the overlay owns the feature scratch, so Model.Predict
// stays safe for concurrent callers without costing the overlay a
// buffer per prediction.
func TestOverlayPredictAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m := NewModel(cfg)
	m.Train(collect(t, cfg, 6, 60000))
	if !m.Quantized() {
		t.Fatal("helper not quantized")
	}
	overlay := NewOverlay(cfg, bp.NewStatic(true))
	if err := overlay.Attach(h2pIP, m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*cfg.HistLen; i++ {
		overlay.Train(uint64(0x100+64*(i%7)), i%3 == 0, true)
	}
	before := overlay.HelperPredictions
	allocs := testing.AllocsPerRun(1000, func() { overlay.Predict(h2pIP) })
	if overlay.HelperPredictions == before {
		t.Fatal("helper never engaged")
	}
	if allocs != 0 {
		t.Errorf("Overlay.Predict allocates %v times per helper prediction", allocs)
	}
}

// loopTrace is a hand-built nest: an inner loop closed by a
// backward-taken conditional edge with an irregular trip count, and a
// body branch whose direction depends on the iteration number — the
// pattern TAGE-SC-L's IMLI component learns from the loop edge's
// target.
func loopTrace(outer int) *trace.Buffer {
	r := xrand.New(11)
	b := trace.NewBuffer(0)
	noReg := [2]uint8{trace.NoReg, trace.NoReg}
	cond := func(ip, target uint64, taken bool) {
		b.Append(trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: taken, Target: target,
			DstReg: trace.NoReg, SrcRegs: noReg})
	}
	for o := 0; o < outer; o++ {
		trips := 6 + r.Intn(6)
		for it := 0; it < trips; it++ {
			cond(0x1010, 0x1030, it%3 == o%2)
			cond(0x1020, 0x1028, r.Bool(0.5))
			cond(0x1040, 0x1000, it < trips-1) // the loop's backward edge
		}
		b.Append(trace.Inst{IP: 0x1050, Kind: trace.KindJump, Taken: true, Target: 0x0f00,
			DstReg: trace.NoReg, SrcRegs: noReg})
	}
	return b
}

// An overlay with no helpers must be its base: the same misprediction
// map as a solo TAGE-SC-L, which sees every conditional branch's target
// — so the overlay must pass the targets on.
func TestOverlayWithoutHelpersMatchesBase(t *testing.T) {
	tr := loopTrace(3000)
	want := core.RunMispredicts(tr.BlockStream(0), tage.New(tage.Config8KB()))
	got := core.RunMispredicts(tr.BlockStream(0), NewOverlay(DefaultConfig(), tage.New(tage.Config8KB())))
	if got.Len() != want.Len() {
		t.Fatalf("overlay map covers %d branches, base %d", got.Len(), want.Len())
	}
	for k := uint64(0); k < want.Len(); k++ {
		if got.Mispredicted(k) != want.Mispredicted(k) {
			t.Fatalf("conditional branch %d: overlay mispredicted=%v, base %v (overlay %d misses, base %d)",
				k, got.Mispredicted(k), want.Mispredicted(k), got.Count(), want.Count())
		}
	}
}
