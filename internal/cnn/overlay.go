package cnn

import (
	"errors"
	"fmt"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// ErrGeometryMismatch is matched (errors.Is) by the error Attach
// returns for a helper whose history length or bucket count differs
// from the overlay's encoding: its weights would be indexed with slots
// and segments it was not trained on.
var ErrGeometryMismatch = errors.New("cnn: helper geometry does not match the overlay")

// Overlay deploys trained helper models alongside a baseline predictor,
// the paper's §V deployment model: TAGE-SC-L stays in place for the vast
// majority of branches; offline-trained helpers take over prediction for
// the specific H2P IPs they were trained on.
type Overlay struct {
	Base    bp.Predictor
	cfg     Config
	helpers map[uint64]*Model

	hist     []uint16
	feat     []float32 // helper feature scratch, sized for every attached helper
	lastBase bool
	lastIP   uint64
	haveLast bool

	// HelperPredictions counts predictions served by helpers.
	HelperPredictions uint64
}

// NewOverlay wraps base with an (initially empty) helper table.
func NewOverlay(cfg Config, base bp.Predictor) *Overlay {
	return &Overlay{Base: base, cfg: cfg, helpers: make(map[uint64]*Model)}
}

// Attach installs a trained helper for the branch at ip. The helper
// must encode history as the overlay does: the same HistLen and
// Buckets, or Attach returns an ErrGeometryMismatch error and installs
// nothing.
func (o *Overlay) Attach(ip uint64, m *Model) error {
	if m.Cfg.HistLen != o.cfg.HistLen || m.Cfg.Buckets != o.cfg.Buckets {
		return fmt.Errorf("%w: helper for %#x has HistLen %d, Buckets %d; overlay has HistLen %d, Buckets %d",
			ErrGeometryMismatch, ip, m.Cfg.HistLen, m.Cfg.Buckets, o.cfg.HistLen, o.cfg.Buckets)
	}
	o.helpers[ip] = m
	if n := m.Cfg.Segments * m.Cfg.Filters; n > len(o.feat) {
		o.feat = make([]float32, n)
	}
	return nil
}

// Predict implements bp.Predictor.
func (o *Overlay) Predict(ip uint64) bool {
	o.lastBase = o.Base.Predict(ip)
	o.lastIP = ip
	o.haveLast = true
	if m, ok := o.helpers[ip]; ok && len(o.hist) >= o.cfg.HistLen {
		o.HelperPredictions++
		return m.predict(o.hist[len(o.hist)-o.cfg.HistLen:], o.feat[:m.Cfg.Segments*m.Cfg.Filters])
	}
	return o.lastBase
}

// Train implements bp.Predictor: TrainWithTarget with no target.
func (o *Overlay) Train(ip uint64, taken, pred bool) { o.TrainWithTarget(ip, 0, taken, pred) }

// TrainWithTarget implements bp.TargetTrainer. The base predictor is
// always trained with its own prediction, and with the target when it
// takes one, so its internal state matches a solo deployment; helpers
// are frozen (offline-trained).
func (o *Overlay) TrainWithTarget(ip, target uint64, taken, pred bool) {
	basePred := o.lastBase
	if !o.haveLast || o.lastIP != ip {
		basePred = o.Base.Predict(ip)
	}
	o.haveLast = false
	if tt, ok := o.Base.(bp.TargetTrainer); ok {
		tt.TrainWithTarget(ip, target, taken, basePred)
	} else {
		o.Base.Train(ip, taken, basePred)
	}
	o.push(Encode(o.cfg, ip, taken))
}

// ObserveBranch implements bp.BranchObserver.
func (o *Overlay) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	bp.Observe(o.Base, ip, target, kind, taken)
}

// Name implements bp.Predictor.
func (o *Overlay) Name() string { return "cnn-overlay(" + o.Base.Name() + ")" }

func (o *Overlay) push(slot uint16) {
	o.hist = append(o.hist, slot)
	if len(o.hist) > 4*o.cfg.HistLen {
		o.hist = o.hist[len(o.hist)-o.cfg.HistLen:]
	}
}
