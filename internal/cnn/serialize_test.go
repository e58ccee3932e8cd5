package cnn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func trainedModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 3
	samples := collect(t, cfg, 2, 150000)
	m := NewModel(cfg)
	m.Train(samples)
	return m, samples
}

func TestSerializeRoundTrip(t *testing.T) {
	m, samples := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	// Only the deployment geometry persists; training hyperparameters
	// (Epochs, LR, Seed) are not part of the shipped metadata.
	if got.Cfg.HistLen != m.Cfg.HistLen || got.Cfg.Buckets != m.Cfg.Buckets ||
		got.Cfg.Filters != m.Cfg.Filters || got.Cfg.Segments != m.Cfg.Segments {
		t.Errorf("geometry mismatch: %+v vs %+v", got.Cfg, m.Cfg)
	}
	// The deployed model must make identical predictions.
	for i, s := range samples {
		if i >= 2000 {
			break
		}
		if got.Predict(s.Slots) != m.Predict(s.Slots) {
			t.Fatalf("prediction diverges at sample %d", i)
		}
	}
}

func TestSerializeCompact(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// 2-bit weights + per-row scales: 2*Buckets rows of (4B scale +
	// Filters bytes) plus the output layer. Far smaller than float32
	// weights would be; this is the "application metadata" footprint.
	maxBytes := 2*m.Cfg.Buckets*(4+m.Cfg.Filters) + m.Cfg.Segments*m.Cfg.Filters + 64
	if buf.Len() > maxBytes {
		t.Errorf("serialized model %dB exceeds bound %dB", buf.Len(), maxBytes)
	}
}

func TestSerializeUntrainedFails(t *testing.T) {
	m := NewModel(DefaultConfig())
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err == nil {
		t.Error("untrained model serialized")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("NOPEnope"))); !errors.Is(err, ErrBadHelperFile) {
		t.Errorf("garbage accepted: %v", err)
	}
	// Truncated stream after a valid header.
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	m.WriteTo(&buf)
	for _, n := range []int{0, 3, 20, buf.Len() - 1} {
		_, err := ReadModel(bytes.NewReader(buf.Bytes()[:n]))
		if !errors.Is(err, ErrTruncatedHelper) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("model truncated to %d bytes: %v, want ErrTruncatedHelper", n, err)
		}
	}
}

// helperHeader encodes a BLH1 header claiming the given geometry, with
// zero bias and output scale.
func helperHeader(histLen, buckets, filters, segments uint64) []byte {
	b := append([]byte{}, helperMagic[:]...)
	for _, v := range []uint64{histLen, buckets, filters, segments} {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, make([]byte, 8)...)
}

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readModelAllocBound is the most ReadModel may allocate for an input
// of n bytes: a constant for the reader's buffers plus a linear share
// of the weights actually present.
func readModelAllocBound(n int) uint64 { return 64<<10 + 64*uint64(n) }

// TestReadModelAllocBoundedByInput is the hostile-header regression: a
// 4 KiB file claiming 1<<20 buckets of 4096 filters used to allocate
// 56 MiB of tables before failing with a bare io.EOF.
func TestReadModelAllocBoundedByInput(t *testing.T) {
	in := append(helperHeader(64, 1<<20, 4096, 1), make([]byte, 4096)...)
	var err error
	n := allocatedBytes(func() { _, err = ReadModel(bytes.NewReader(in)) })
	if !errors.Is(err, ErrTruncatedHelper) {
		t.Errorf("ReadModel = %v, want ErrTruncatedHelper", err)
	}
	if bound := readModelAllocBound(len(in)); n > bound {
		t.Errorf("%d-byte input allocated %d bytes, bound %d", len(in), n, bound)
	}
}

// FuzzReadModel feeds arbitrary bytes to the helper-model decoder: it
// must not panic, must allocate no more than readModelAllocBound of the
// input, and a model it accepts must round-trip through WriteTo.
func FuzzReadModel(f *testing.F) {
	f.Add([]byte("NOPEnope"))
	f.Add(helperHeader(2, 1, 1, 1))
	f.Add(append(helperHeader(2, 1, 2, 1), 2, 2, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 4, 0))
	f.Add(helperHeader(64, 1<<20, 4096, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *Model
		var err error
		n := allocatedBytes(func() { m, err = ReadModel(bytes.NewReader(data)) })
		if bound := readModelAllocBound(len(data)); n > bound {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatalf("accepted model does not serialize: %v", err)
		}
		again, err := ReadModel(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("serialized model rejected: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := again.WriteTo(&out2); err != nil || !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("round trip changed the model (%v)", err)
		}
	})
}
