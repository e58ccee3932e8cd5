// Package cnn implements the offline-trained convolutional helper
// predictor the paper proposes in §V-C and develops in its companion
// paper (Tarsa et al., "Improving Branch Prediction By Modeling Global
// History with Convolutional Neural Networks", AIDArc 2019).
//
// Architecture, following the companion paper's deployable variant:
//
//   - input: the last HistLen (IP, direction) pairs, each one-hot encoded
//     by hashing into Buckets*2 slots (direction folded into the slot);
//   - a width-1 convolution (an embedding) mapping each slot to Filters
//     features;
//   - sum pooling within Segments contiguous history segments — the step
//     that buys robustness to the history-position variation that defeats
//     TAGE's exact matching (paper §IV-A, Fig 6);
//   - a fully-connected sigmoid output over the pooled features.
//
// Training runs offline in float32 over traces from multiple application
// inputs; inference quantizes weights to 2-bit magnitudes as in the
// companion paper so the online helper is hardware-plausible.
package cnn

import (
	"math"

	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// Config sizes a helper model.
type Config struct {
	HistLen  int // history length in conditional branches
	Buckets  int // hashed IP buckets (input dim = 2*Buckets)
	Filters  int
	Segments int
	Epochs   int
	LR       float64
	Seed     uint64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{HistLen: 64, Buckets: 128, Filters: 16, Segments: 8,
		Epochs: 8, LR: 0.05, Seed: 7}
}

// Sample is one training/evaluation example for a single target branch: a
// snapshot of encoded history and the resolved direction.
type Sample struct {
	Slots []uint16 // len = HistLen, newest last
	Taken bool
}

// Encode hashes an (ip, direction) pair into an input slot.
func Encode(cfg Config, ip uint64, taken bool) uint16 {
	h := xrand.Mix64(ip) % uint64(cfg.Buckets)
	slot := uint16(h) * 2
	if taken {
		slot++
	}
	return slot
}

// HistoryCollector gathers samples for one target branch from a
// measurement run. It implements the core.Observer contract.
type HistoryCollector struct {
	Cfg     Config
	Target  uint64
	Samples []Sample

	hist []uint16
}

// NewHistoryCollector returns a collector for target.
func NewHistoryCollector(cfg Config, target uint64) *HistoryCollector {
	return &HistoryCollector{Cfg: cfg, Target: target}
}

// Inst implements the observer contract.
func (h *HistoryCollector) Inst(_ uint64, inst *trace.Inst) {
	if inst.Kind != trace.KindCondBr {
		return
	}
	if inst.IP == h.Target && len(h.hist) >= h.Cfg.HistLen {
		slots := make([]uint16, h.Cfg.HistLen)
		copy(slots, h.hist[len(h.hist)-h.Cfg.HistLen:])
		h.Samples = append(h.Samples, Sample{Slots: slots, Taken: inst.Taken})
	}
	h.hist = append(h.hist, Encode(h.Cfg, inst.IP, inst.Taken))
	if len(h.hist) > 4*h.Cfg.HistLen {
		h.hist = h.hist[len(h.hist)-h.Cfg.HistLen:]
	}
}

// Branch implements the observer contract.
func (h *HistoryCollector) Branch(uint64, *trace.Inst, bool) {}

// Model is a trained helper predictor for one static branch.
type Model struct {
	Cfg Config
	// Float weights (training). The embedding is one flat table: the
	// Filters weights of input slot s are w1[s*Filters : (s+1)*Filters].
	w1 []float32 // [2*Buckets*Filters]
	w2 []float32 // [Segments*Filters]
	b  float32
	// Quantized weights (deployment): 2-bit magnitudes with per-row
	// (embedding) and per-tensor (output) scale factors, the
	// grouped-scaling standard for low-precision inference. q1 has w1's
	// flat layout.
	q1        []int8
	q2        []int8
	scale1    []float32 // per-row scale for q1
	scale2    float32   // per-tensor scale for q2
	quantized bool
}

// NewModel returns an untrained model with small random weights.
func NewModel(cfg Config) *Model {
	rng := xrand.New(cfg.Seed)
	m := &Model{Cfg: cfg}
	// Embeddings start at zero so that slots never seen during training
	// contribute nothing at inference (and quantize to the dead zone);
	// the random output layer breaks filter symmetry, and the ReLU
	// subgradient at zero lets embedding gradients flow from the start.
	m.w1 = make([]float32, 2*cfg.Buckets*cfg.Filters)
	m.w2 = make([]float32, cfg.Segments*cfg.Filters)
	for i := range m.w2 {
		m.w2[i] = float32(rng.NormFloat64() * 0.1)
	}
	return m
}

// segLen returns the length of the history segments of an n-slot
// snapshot: ceil(n/Segments), so trailing segments may be short or
// empty.
func (m *Model) segLen(n int) int { return (n + m.Cfg.Segments - 1) / m.Cfg.Segments }

// segment returns the slots of history segment seg.
func segment(slots []uint16, segLen, seg int) []uint16 {
	lo := min(seg*segLen, len(slots))
	return slots[lo:min(lo+segLen, len(slots))]
}

// pooled computes the raw (pre-ReLU) segment-pooled feature vector for
// one sample under the given flat embedding weights. Each feature
// accumulates from +0 over its segment's slots in history order, eight
// filters per pass in registers (DESIGN.md §13).
func (m *Model) pooled(w1 []float32, slots []uint16, out []float32) {
	nf := m.Cfg.Filters
	segLen := m.segLen(len(slots))
	for seg := 0; seg < m.Cfg.Segments; seg++ {
		ss := segment(slots, segLen, seg)
		o := out[seg*nf : (seg+1)*nf]
		f := 0
		for ; f+8 <= nf; f += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for _, slot := range ss {
				w := w1[int(slot)*nf+f:][:8]
				a0 += w[0]
				a1 += w[1]
				a2 += w[2]
				a3 += w[3]
				a4 += w[4]
				a5 += w[5]
				a6 += w[6]
				a7 += w[7]
			}
			o[f], o[f+1], o[f+2], o[f+3] = a0, a1, a2, a3
			o[f+4], o[f+5], o[f+6], o[f+7] = a4, a5, a6, a7
		}
		for ; f < nf; f++ {
			var a float32
			for _, slot := range ss {
				a += w1[int(slot)*nf+f]
			}
			o[f] = a
		}
	}
}

// forward returns the pre-sigmoid logit under the given weights, filling
// raw with the pre-ReLU pooled features.
func (m *Model) forward(w1, w2 []float32, slots []uint16, raw []float32) float32 {
	m.pooled(w1, slots, raw)
	z := m.b
	for i, r := range raw {
		if r > 0 {
			z += w2[i] * r
		}
	}
	return z
}

// trainScratch holds the buffers one Train call reuses across steps.
type trainScratch struct {
	feat []float32 // pooled features of the current sample
	// The current sample's ReLU split, each in ascending order:
	// out[:nout] lists the features with r > 0 (they feed the logit and
	// step w2); grad lists, segment by segment, the filters whose feature
	// has r >= 0 (they step the embedding), segment seg's run ending at
	// gradEnd[seg].
	out     []int32
	nout    int
	grad    []int32
	gradEnd []int
	fw1     []float32 // dequantized embedding (STE epochs)
	fw2     []float32 // dequantized output layer (STE epochs)
}

func newTrainScratch(cfg Config) *trainScratch {
	n := cfg.Segments * cfg.Filters
	return &trainScratch{feat: make([]float32, n), out: make([]int32, n),
		grad: make([]int32, n), gradEnd: make([]int, cfg.Segments)}
}

// split fills the ReLU split from feat. The appends are branch-free:
// the sign of a pooled feature is data, not a pattern a branch
// predictor can learn.
func (sc *trainScratch) split(nf int) {
	no, ng := 0, 0
	for seg := range sc.gradEnd {
		for f, r := range sc.feat[seg*nf : (seg+1)*nf] {
			sc.out[no] = int32(seg*nf + f)
			no += b2i(r > 0)
			sc.grad[ng] = int32(f)
			ng += b2i(r >= 0)
		}
		sc.gradEnd[seg] = ng
	}
	sc.nout = no
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Train fits the model to the samples with SGD on binary cross-entropy,
// then runs quantization-aware epochs: the forward pass uses the
// quantized weights while gradients update the float shadow weights (the
// straight-through estimator of the BNN line of work the companion paper
// builds on). Call with samples aggregated over multiple application
// inputs for the generalization the paper argues for (§V-B).
func (m *Model) Train(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	rng := xrand.New(m.Cfg.Seed + 1)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sc := newTrainScratch(m.Cfg)
	lr := float32(m.Cfg.LR)
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		m.epoch(samples, order, rng, lr, false, sc)
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
		m.epoch(samples, order, rng, lr, true, sc)
		lr *= 0.8
	}
	m.quantize()
}

// epoch runs one SGD pass. With ste set, the forward pass sees the
// dequantized weights (refreshed every steRefresh samples so the forward
// function tracks the drifting float shadows) while updates flow to the
// float weights — the straight-through estimator.
func (m *Model) epoch(samples []Sample, order []int, rng *xrand.Rand, lr float32, ste bool, sc *trainScratch) {
	const steRefresh = 256
	fw1, fw2 := m.w1, m.w2
	if ste {
		m.dequantize(sc)
		fw1, fw2 = sc.fw1, sc.fw2
	}
	// Fisher-Yates shuffle for SGD.
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for step, idx := range order {
		if ste && step > 0 && step%steRefresh == 0 {
			m.quantize()
			m.dequantize(sc)
			fw1, fw2 = sc.fw1, sc.fw2
		}
		s := samples[idx]
		m.pooled(fw1, s.Slots, sc.feat)
		sc.split(m.Cfg.Filters)
		// The logit sums the active features in index order, as forward
		// does.
		z := m.b
		for _, i := range sc.out[:sc.nout] {
			z += fw2[i] * sc.feat[i]
		}
		p := sigmoid(z)
		y := float32(0)
		if s.Taken {
			y = 1
		}
		g := p - y // dL/dz
		m.b -= lr * g
		m.backward(sc, s.Slots, fw2, lr*g)
	}
}

// backward applies one sample's gradient step lg = lr*dL/dz. Every
// feature with r >= 0 (the ReLU subgradient of 1 at exactly zero lets
// zero-initialized embeddings start learning) steps its filter's weight
// in each slot row of its segment; every feature with r > 0 steps its
// output weight. Features run in index order and slots in history
// order, so each weight receives its subtractions in the same order as
// a per-feature loop applies them, and every embedding step is computed
// from the output weights the forward pass used (DESIGN.md §13).
func (m *Model) backward(sc *trainScratch, slots []uint16, fw2 []float32, lg float32) {
	nf := m.Cfg.Filters
	segLen := m.segLen(len(slots))
	w1 := m.w1
	k := 0
	for seg, end := range sc.gradEnd {
		ss := segment(slots, segLen, seg)
		for ; k < end; k++ {
			f := int(sc.grad[k])
			d := lg * fw2[seg*nf+f]
			for _, slot := range ss {
				w1[int(slot)*nf+f] -= d
			}
		}
	}
	for _, i := range sc.out[:sc.nout] {
		m.w2[i] -= lg * sc.feat[i]
	}
}

// dequantize refreshes sc.fw1/sc.fw2 from the quantized weights.
func (m *Model) dequantize(sc *trainScratch) {
	sc.fw1 = resize(sc.fw1, len(m.q1))
	nf := m.Cfg.Filters
	for i, v := range m.q1 {
		sc.fw1[i] = float32(v) * m.scale1[i/nf]
	}
	sc.fw2 = resize(sc.fw2, len(m.q2))
	for i, v := range m.q2 {
		sc.fw2[i] = float32(v) * m.scale2
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// quantize snaps each weight tensor to sign + 2-bit magnitude with a
// dead zone: levels {-2,-1,0,+1,+2}·scale, scale chosen per tensor. The
// dead zone is essential — most embedding rows are never trained (their
// input slot never fires for this branch) and must quantize to exactly
// zero rather than inject ±1 noise into every lookup.
func (m *Model) quantize() {
	scaleOf := func(row []float32) float32 {
		var sum float64
		var n int
		for _, w := range row {
			if a := math.Abs(float64(w)); a > 1e-6 {
				sum += a
				n++
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
	nf := m.Cfg.Filters
	m.scale1 = resize(m.scale1, len(m.w1)/nf)
	m.q1 = resize(m.q1, len(m.w1))
	for i := range m.scale1 {
		row := m.w1[i*nf : (i+1)*nf]
		s := scaleOf(row)
		m.scale1[i] = s
		for j, w := range row {
			m.q1[i*nf+j] = quant(w, s)
		}
	}
	m.q2 = resize(m.q2, len(m.w2))
	for i, w := range m.w2 {
		m.q2[i] = quant(w, m.scale2)
	}
	m.quantized = true
}

// Predict returns the predicted direction for a history snapshot using
// the quantized weights when available (integer dot products, as deployed
// on a BPU), falling back to float weights before quantization. It
// allocates its feature vector, so concurrent callers may share a model.
func (m *Model) Predict(slots []uint16) bool {
	return m.predict(slots, make([]float32, m.Cfg.Segments*m.Cfg.Filters))
}

// predict is Predict with caller-provided feature scratch of length
// Segments*Filters.
func (m *Model) predict(slots []uint16, feat []float32) bool {
	if !m.quantized {
		return m.forward(m.w1, m.w2, slots, feat) >= 0
	}
	clear(feat)
	nf := m.Cfg.Filters
	segLen := m.segLen(len(slots))
	for t, slot := range slots {
		seg := t / segLen
		s := m.scale1[slot]
		if s == 0 {
			continue
		}
		w := m.q1[int(slot)*nf:][:nf]
		o := feat[seg*nf : (seg+1)*nf]
		for f, q := range w {
			o[f] += float32(q) * s
		}
	}
	var z float64
	for i, f := range feat {
		if f > 0 { // ReLU
			z += float64(f) * float64(m.q2[i])
		}
	}
	return z*float64(m.scale2)+float64(m.b) >= 0
}

// Accuracy evaluates the model on samples.
func (m *Model) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return float64(m.Correct(samples)) / float64(len(samples))
}

// Correct returns how many of samples the model predicts correctly.
func (m *Model) Correct(samples []Sample) int {
	correct := 0
	feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
	for _, s := range samples {
		if m.predict(s.Slots, feat) == s.Taken {
			correct++
		}
	}
	return correct
}

// Quantized reports whether the model carries 2-bit inference weights.
func (m *Model) Quantized() bool { return m.quantized }

func sigmoid(z float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(z))))
}
