package experiments

import (
	"sync/atomic"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
)

// Prediction is data: a quick `-run all` on one cache runs TAGE-SC-L
// 8KB once per trace that needs it — the 15 input-0 traces, table1's 9
// second inputs and cnn's 3 eval inputs, whose maps serve screening,
// the IPC figures and the CNN baseline alike — plus the 9 passes of
// Alloc's telemetry, which is predictor state and not in the map.
func TestRunAllPredictsEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	base := tage.Config8KB().Name
	var passes atomic.Int64
	orig := runMispredicts
	runMispredicts = func(bs trace.BlockStream, p bp.Predictor) *bp.MispredictMap {
		if p.Name() == base {
			passes.Add(1)
		}
		return orig(bs, p)
	}
	defer func() { runMispredicts = orig }()

	cfg := Quick()
	cfg.Cache = cfg.NewCache(0)
	for _, r := range All() {
		r.Run(cfg)
	}
	if got := passes.Load(); got != 36 {
		t.Errorf("quick run-all made %d %s passes, want 36", got, base)
	}
}
