package cnn

import (
	"math"
	"testing"

	"branchlab/internal/xrand"
)

// This file keeps the helper-model training kernel as it was before
// the flat, register-blocked rewrite — per-row [][]float32 embedding,
// per-feature gradient loop, fresh quantize/dequantize tables on every
// refresh — as the exactness oracle for TestTrainMatchesReference.

// refModel is the reference copy of Model.
type refModel struct {
	Cfg Config
	// Float weights (training).
	w1 [][]float32 // [2*Buckets][Filters]
	w2 []float32   // [Segments*Filters]
	b  float32
	// Quantized weights (deployment): 2-bit magnitudes with per-row
	// (embedding) and per-tensor (output) scale factors, the
	// grouped-scaling standard for low-precision inference.
	q1        [][]int8
	q2        []int8
	scale1    []float32 // per-row scale for q1
	scale2    float32   // per-tensor scale for q2
	quantized bool
}

// newRefModel returns an untrained model with small random weights.
func newRefModel(cfg Config) *refModel {
	rng := xrand.New(cfg.Seed)
	m := &refModel{Cfg: cfg}
	// Embeddings start at zero so that slots never seen during training
	// contribute nothing at inference (and quantize to the dead zone);
	// the random output layer breaks filter symmetry, and the ReLU
	// subgradient at zero lets embedding gradients flow from the start.
	m.w1 = make([][]float32, 2*cfg.Buckets)
	for i := range m.w1 {
		m.w1[i] = make([]float32, cfg.Filters)
	}
	m.w2 = make([]float32, cfg.Segments*cfg.Filters)
	for i := range m.w2 {
		m.w2[i] = float32(rng.NormFloat64() * 0.1)
	}
	return m
}

// pooled computes the raw (pre-ReLU) segment-pooled feature vector for
// one sample under the given embedding weights.
func (m *refModel) pooled(w1 [][]float32, slots []uint16, out []float32) {
	for i := range out {
		out[i] = 0
	}
	segLen := (len(slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
	for t, slot := range slots {
		seg := t / segLen
		if seg >= m.Cfg.Segments {
			seg = m.Cfg.Segments - 1
		}
		w := w1[slot]
		base := seg * m.Cfg.Filters
		for f := 0; f < m.Cfg.Filters; f++ {
			out[base+f] += w[f]
		}
	}
}

// forward returns the pre-sigmoid logit under the given weights, filling
// raw with the pre-ReLU pooled features.
func (m *refModel) forward(w1 [][]float32, w2 []float32, slots []uint16, raw []float32) float32 {
	m.pooled(w1, slots, raw)
	z := m.b
	for i, r := range raw {
		if r > 0 {
			z += w2[i] * r
		}
	}
	return z
}

// Train fits the model to the samples with SGD on binary cross-entropy,
// then runs quantization-aware epochs: the forward pass uses the
// quantized weights while gradients update the float shadow weights (the
// straight-through estimator of the BNN line of work the companion paper
// builds on). Call with samples aggregated over multiple application
// inputs for the generalization the paper argues for (§V-B).
func (m *refModel) Train(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	rng := xrand.New(m.Cfg.Seed + 1)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	lr := float32(m.Cfg.LR)
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		m.epoch(samples, order, rng, lr, false)
		lr *= 0.8
	}
	// Quantization-aware refinement at a damped rate: large steps make
	// weights oscillate across the coarse quantization boundaries.
	lr *= 0.3
	qatEpochs := m.Cfg.Epochs/2 + 1
	for epoch := 0; epoch < qatEpochs; epoch++ {
		m.quantize()
		if !m.quantized {
			return
		}
		m.epoch(samples, order, rng, lr, true)
		lr *= 0.8
	}
	m.quantize()
}

// epoch runs one SGD pass. With ste set, the forward pass sees the
// dequantized weights (refreshed every steRefresh samples so the forward
// function tracks the drifting float shadows) while updates flow to the
// float weights — the straight-through estimator.
func (m *refModel) epoch(samples []Sample, order []int, rng *xrand.Rand, lr float32, ste bool) {
	const steRefresh = 256
	feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
	fw1, fw2 := m.w1, m.w2
	if ste {
		fw1 = refDequant2D(m.q1, m.scale1)
		fw2 = refDequant1D(m.q2, m.scale2)
	}
	// Fisher-Yates shuffle for SGD.
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for step, idx := range order {
		if ste && step > 0 && step%steRefresh == 0 {
			m.quantize()
			fw1 = refDequant2D(m.q1, m.scale1)
			fw2 = refDequant1D(m.q2, m.scale2)
		}
		s := samples[idx]
		z := m.forward(fw1, fw2, s.Slots, feat)
		p := sigmoid(z)
		y := float32(0)
		if s.Taken {
			y = 1
		}
		g := p - y // dL/dz
		m.b -= lr * g
		segLen := (len(s.Slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
		for i, r := range feat {
			// ReLU subgradient of 1 at exactly zero lets zero-initialized
			// embeddings start learning.
			if r >= 0 {
				m.w1grad(s.Slots, segLen, i, lr*g*fw2[i])
			}
			if r > 0 {
				m.w2[i] -= lr * g * r
			}
		}
	}
}

func refDequant2D(q [][]int8, scales []float32) [][]float32 {
	out := make([][]float32, len(q))
	for i, row := range q {
		out[i] = make([]float32, len(row))
		for j, v := range row {
			out[i][j] = float32(v) * scales[i]
		}
	}
	return out
}

func refDequant1D(q []int8, scale float32) []float32 {
	out := make([]float32, len(q))
	for i, v := range q {
		out[i] = float32(v) * scale
	}
	return out
}

// w1grad applies the embedding gradient for pooled feature i.
func (m *refModel) w1grad(slots []uint16, segLen, i int, delta float32) {
	seg := i / m.Cfg.Filters
	f := i % m.Cfg.Filters
	lo := seg * segLen
	hi := lo + segLen
	if hi > len(slots) {
		hi = len(slots)
	}
	for t := lo; t < hi; t++ {
		m.w1[slots[t]][f] -= delta
	}
}

// quantize snaps each weight tensor to sign + 2-bit magnitude with a
// dead zone: levels {-2,-1,0,+1,+2}·scale, scale chosen per tensor. The
// dead zone is essential — most embedding rows are never trained (their
// input slot never fires for this branch) and must quantize to exactly
// zero rather than inject ±1 noise into every lookup.
func (m *refModel) quantize() {
	scaleOf := func(rows ...[]float32) float32 {
		var sum float64
		var n int
		for _, row := range rows {
			for _, w := range row {
				if a := math.Abs(float64(w)); a > 1e-6 {
					sum += a
					n++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return float32(sum / float64(n))
	}
	quant := func(w, scale float32) int8 {
		if scale == 0 {
			return 0
		}
		v := w / scale
		switch {
		case v <= -1.5:
			return -2
		case v <= -0.5:
			return -1
		case v < 0.5:
			return 0
		case v < 1.5:
			return 1
		default:
			return 2
		}
	}
	m.scale2 = scaleOf(m.w2)
	if m.scale2 == 0 {
		return
	}
	m.scale1 = make([]float32, len(m.w1))
	m.q1 = make([][]int8, len(m.w1))
	for i, row := range m.w1 {
		s := scaleOf(row)
		m.scale1[i] = s
		m.q1[i] = make([]int8, len(row))
		for j, w := range row {
			m.q1[i][j] = quant(w, s)
		}
	}
	m.q2 = make([]int8, len(m.w2))
	for i, w := range m.w2 {
		m.q2[i] = quant(w, m.scale2)
	}
	m.quantized = true
}

// randomSamples draws n samples with uniformly random slots and
// directions: unlike collected histories, every embedding row is hit
// and directions carry no signal, so gradients keep both signs.
func randomSamples(cfg Config, seed uint64, n int) []Sample {
	rng := xrand.New(seed)
	out := make([]Sample, n)
	for i := range out {
		slots := make([]uint16, cfg.HistLen)
		for t := range slots {
			slots[t] = uint16(rng.Intn(2 * cfg.Buckets))
		}
		out[i] = Sample{Slots: slots, Taken: rng.Bool(0.5)}
	}
	return out
}

// TestTrainMatchesReference trains the production model and the
// reference copy on the same samples and requires every float weight,
// quantized level and scale to match bit for bit, over the default
// geometry and ones that stress the kernel's edges: filter counts that
// are not a multiple of the 8-wide register block, a history shorter
// than the segment count (empty trailing segments) and a history that
// does not divide into segments evenly.
func TestTrainMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"filters=3", func(c *Config) { c.Filters = 3 }},
		{"filters=12", func(c *Config) { c.Filters = 12 }},
		{"histlen=10/segments=8", func(c *Config) { c.HistLen = 10 }},
		{"histlen=63", func(c *Config) { c.HistLen = 63 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.edit(&cfg)
		for _, src := range []string{"collected", "random"} {
			t.Run(c.name+"/"+src, func(t *testing.T) {
				var samples []Sample
				if src == "collected" {
					samples = collect(t, cfg, 3, 60000)
				} else {
					samples = randomSamples(cfg, 5, 3000)
				}
				m := NewModel(cfg)
				m.Train(samples)
				ref := newRefModel(cfg)
				ref.Train(samples)
				compareToReference(t, m, ref)
			})
		}
	}
}

func compareToReference(t *testing.T, m *Model, ref *refModel) {
	t.Helper()
	bitsEq := func(what string, i int, a, b float32) {
		if math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("%s[%d] = %x, reference %x", what, i, math.Float32bits(a), math.Float32bits(b))
		}
	}
	nf := m.Cfg.Filters
	if len(m.w1) != len(ref.w1)*nf {
		t.Fatalf("w1 has %d weights, reference %d rows of %d", len(m.w1), len(ref.w1), nf)
	}
	for s, row := range ref.w1 {
		for f, w := range row {
			bitsEq("w1", s*nf+f, m.w1[s*nf+f], w)
		}
	}
	for i, w := range ref.w2 {
		bitsEq("w2", i, m.w2[i], w)
	}
	bitsEq("b", 0, m.b, ref.b)
	if m.quantized != ref.quantized {
		t.Fatalf("quantized = %v, reference %v", m.quantized, ref.quantized)
	}
	if !ref.quantized {
		return
	}
	bitsEq("scale2", 0, m.scale2, ref.scale2)
	for s, row := range ref.q1 {
		bitsEq("scale1", s, m.scale1[s], ref.scale1[s])
		for f, q := range row {
			if m.q1[s*nf+f] != q {
				t.Fatalf("q1[%d] = %d, reference %d", s*nf+f, m.q1[s*nf+f], q)
			}
		}
	}
	for i, q := range ref.q2 {
		if m.q2[i] != q {
			t.Fatalf("q2[%d] = %d, reference %d", i, m.q2[i], q)
		}
	}
}
