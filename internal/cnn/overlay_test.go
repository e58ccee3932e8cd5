package cnn

import (
	"bytes"
	"errors"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
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
