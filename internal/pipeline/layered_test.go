package pipeline

import (
	"fmt"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
	"branchlab/internal/xrand"
)

// allWorkloads returns every workload of both suites.
func allWorkloads() []*workload.Spec {
	return append(workload.SPECint2017Like(), workload.LCFLike()...)
}

// layeredBudget keeps the whole-suite sweeps fast while still spanning
// several replay blocks, cold-cache warm-up and store-queue wrap at 16x.
const layeredBudget = 40_000

// everyThirdCondIP is a deterministic oracle set: every third
// conditional-branch IP of tr (by IP value).
func everyThirdCondIP(tr *trace.Buffer) map[uint64]bool {
	set := map[uint64]bool{}
	var inst trace.Inst
	for s := tr.Stream(); s.Next(&inst); {
		if inst.Kind == trace.KindCondBr && (inst.IP>>2)%3 == 0 {
			set[inst.IP] = true
		}
	}
	return set
}

// layered times tr under opt through the separate stages, the way the
// experiment drivers compose them.
func layered(cfg Config, tr *trace.Buffer, a *Annotation, opt Options) Result {
	var miss *core.MispredictMap
	if !opt.PerfectBP && opt.Predictor != nil {
		miss = Oracle(tr, core.RunMispredicts(tr.BlockStream(0), opt.Predictor), opt)
	}
	return Time(cfg, tr, a, miss)
}

// TestLayeredMatchesReference pins the tentpole property: over every
// workload, at three scales and the four regimes the IPC figures use,
// the layered stages and the block-composed Core.Run both return the
// fused reference model's Result field for field.
func TestLayeredMatchesReference(t *testing.T) {
	for _, s := range allWorkloads() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr := s.Record(0, layeredBudget)
			h2ps := everyThirdCondIP(tr)
			regimes := []struct {
				name string
				opt  func() Options
			}{
				{"tage-8kb", func() Options { return Options{Predictor: tage.New(tage.Config8KB())} }},
				{"perfect-h2p", func() Options {
					return Options{Predictor: tage.New(tage.Config8KB()), PerfectIPs: h2ps}
				}},
				{"minexec", func() Options {
					return Options{Predictor: tage.New(tage.Config8KB()), MinExecsPerfect: 16}
				}},
				{"perfect", func() Options { return Options{PerfectBP: true} }},
			}
			a := Annotate(Skylake(), tr)
			for _, k := range []int{1, 4, 16} {
				cfg := Skylake().Scaled(k)
				for _, r := range regimes {
					want := Reference(cfg, tr.Stream(), r.opt())
					if got := layered(cfg, tr, a, r.opt()); got != want {
						t.Errorf("%dx %s: layered %+v != reference %+v", k, r.name, got, want)
					}
					if got := New(cfg).Run(tr.Stream(), r.opt()); got != want {
						t.Errorf("%dx %s: Run %+v != reference %+v", k, r.name, got, want)
					}
				}
			}
		})
	}
}

// TestLayeredMatchesReferenceOtherMachines covers the configurations the
// Skylake sweep does not: target prediction disabled, and a memory
// latency that does not fit the one-byte record (the record stores
// serving depths, not latencies).
func TestLayeredMatchesReferenceOtherMachines(t *testing.T) {
	noBTB := Skylake()
	noBTB.BTBMissPenalty = 0
	slowMem := Skylake()
	slowMem.Caches.MemLat = 700
	slowMem.Caches.L1DKB = 8
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"btb-off", noBTB}, {"memlat-700", slowMem}} {
		for _, name := range []string{"605.mcf_s", "631.deepsjeng_s"} {
			s, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			tr := s.Record(0, layeredBudget)
			a := Annotate(m.cfg, tr)
			for _, k := range []int{1, 4} {
				cfg := m.cfg.Scaled(k)
				for _, perfect := range []bool{false, true} {
					opt := func() Options {
						return Options{Predictor: tage.New(tage.Config8KB()), PerfectBP: perfect}
					}
					want := Reference(cfg, tr.Stream(), opt())
					if got := layered(cfg, tr, a, opt()); got != want {
						t.Errorf("%s %s %dx perfect=%v: layered %+v != reference %+v", m.name, name, k, perfect, got, want)
					}
					if got := New(cfg).Run(tr.Stream(), opt()); got != want {
						t.Errorf("%s %s %dx perfect=%v: Run %+v != reference %+v", m.name, name, k, perfect, got, want)
					}
				}
			}
		}
	}
}

// TestTimingInvariants checks properties any sound timing model has,
// over every workload: the prediction stage agrees with core.Run; IPC
// never exceeds the fetch width; perfect prediction is never slower
// than a real predictor at the same scale; and under perfect
// prediction a wider machine is never slower.
func TestTimingInvariants(t *testing.T) {
	scales := []int{1, 2, 4, 8, 16, 32}
	for _, s := range allWorkloads() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr := s.Record(0, layeredBudget)
			miss := core.RunMispredicts(tr.BlockStream(0), tage.New(tage.Config8KB()))
			st := core.Run(tr.Stream(), tage.New(tage.Config8KB()))
			if miss.Len() != st.CondExecs || miss.Count() != st.Mispreds {
				t.Errorf("prediction stage %d/%d != core.Run %d/%d",
					miss.Count(), miss.Len(), st.Mispreds, st.CondExecs)
			}
			a := Annotate(Skylake(), tr)
			prev := 0.0
			for _, k := range scales {
				cfg := Skylake().Scaled(k)
				perfect := Time(cfg, tr, a, nil)
				pred := Time(cfg, tr, a, miss)
				if pred.Mispreds != st.Mispreds {
					t.Errorf("%dx: timed %d mispredictions, core.Run %d", k, pred.Mispreds, st.Mispreds)
				}
				for _, r := range []Result{perfect, pred} {
					if r.IPC > float64(cfg.FetchWidth) {
						t.Errorf("%dx: IPC %v exceeds fetch width %d", k, r.IPC, cfg.FetchWidth)
					}
				}
				if perfect.IPC < pred.IPC {
					t.Errorf("%dx: perfect-BP IPC %v below TAGE-SC-L 8KB IPC %v", k, perfect.IPC, pred.IPC)
				}
				if perfect.IPC < prev {
					t.Errorf("%dx: perfect-BP IPC %v below the narrower machine's %v", k, perfect.IPC, prev)
				}
				prev = perfect.IPC
			}
		})
	}
}

func TestOracleRegimes(t *testing.T) {
	tr := branchyTrace(20000, 9, 0.5)
	miss := core.RunMispredicts(tr.BlockStream(0), bp.NewBimodal(10))
	if Oracle(tr, miss, Options{PerfectBP: true}) != nil {
		t.Error("PerfectBP should leave no mispredictions (nil map)")
	}
	if Oracle(tr, miss, Options{}) != miss {
		t.Error("no oracle should return the predictor's own map")
	}
	masked := Oracle(tr, miss, Options{PerfectIPs: everyThirdCondIP(tr)})
	if masked.Len() != miss.Len() || masked.Count() >= miss.Count() {
		t.Errorf("masked map %d/%d vs raw %d/%d", masked.Count(), masked.Len(), miss.Count(), miss.Len())
	}
	never := Oracle(tr, miss, Options{MinExecsPerfect: 1 << 40})
	if never.Count() != miss.Count() {
		t.Errorf("unreachable exec threshold masked %d of %d", miss.Count()-never.Count(), miss.Count())
	}
}

func TestTimePanicsOnForeignAnnotation(t *testing.T) {
	tr := branchyTrace(1000, 1, 0.5)
	a := Annotate(Skylake(), tr)
	other := Skylake()
	other.Caches.MemLat++
	longer := core.RunMispredicts(branchyTrace(2000, 1, 0.5).BlockStream(0), bp.NewBimodal(4))
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"machine", func() { Time(other, tr, a, nil) }},
		{"trace", func() { Time(Skylake(), branchyTrace(999, 1, 0.5), a, nil) }},
		{"map", func() { Time(Skylake(), tr, a, longer) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch: no panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// scanForward is the store-queue scan storeForwarder replaced: the
// maximum completion cycle over all n ring slots holding block,
// zero-initialised slots included.
type scanForward struct {
	addr, done []uint64
	idx        int
}

func (s *scanForward) forward(block uint64) uint64 {
	fwd := uint64(0)
	for i := range s.addr {
		if s.addr[i] == block && s.done[i] > fwd {
			fwd = s.done[i]
		}
	}
	return fwd
}

func (s *scanForward) push(block, done uint64) {
	s.addr[s.idx], s.done[s.idx] = block, done
	if s.idx++; s.idx == len(s.addr) {
		s.idx = 0
	}
}

// TestStoreForwarderMatchesScan drives the indexed forwarder and the
// scan through random store/load sequences — few distinct blocks (block
// 0 included, which matches the scan's zero-initialised slots), done
// cycles that go up and down, every queue size from 1 to past the hash
// table's minimum — and requires identical answers to every query.
func TestStoreForwarderMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 56, 200} {
		for _, blocks := range []uint64{1, 3, 17, 1000} {
			t.Run(fmt.Sprintf("n=%d/blocks=%d", n, blocks), func(t *testing.T) {
				rng := xrand.New(uint64(n)*1000 + blocks)
				f := newStoreForwarder(n)
				ref := &scanForward{addr: make([]uint64, n), done: make([]uint64, n)}
				var clock uint64
				for op := 0; op < 20000; op++ {
					block := rng.Uint64() % blocks
					if rng.Bool(0.4) {
						clock += rng.Uint64() % 8
						done := clock + rng.Uint64()%64 // not monotonic in store order
						f.push(block, done)
						ref.push(block, done)
						continue
					}
					if got, want := f.forward(block), ref.forward(block); got != want {
						t.Fatalf("op %d: forward(%d) = %d, scan %d", op, block, got, want)
					}
				}
			})
		}
	}
}

// TestWidthLimiterMatchesReference drives the epoch-tagged, skip-ahead
// limiter and the reference's eagerly cleared, linearly probed one with
// the same request sequences — non-decreasing like fetch, jittering
// like issue, and with jumps past the ring and requests old enough to
// alias a newer cycle's slot — and requires identical claims.
func TestWidthLimiterMatchesReference(t *testing.T) {
	for _, mode := range []string{"monotone", "jitter", "alias"} {
		for _, limit := range []int{1, 2, 6, 96} {
			t.Run(fmt.Sprintf("%s/limit=%d", mode, limit), func(t *testing.T) {
				rng := xrand.New(uint64(limit) + uint64(len(mode)))
				w, ref := newWidthLimiter(limit), newRefLimiter(limit)
				var base uint64
				for op := 0; op < 200000; op++ {
					want := base
					switch mode {
					case "monotone":
						base += rng.Uint64() % 3
						if rng.Bool(0.001) {
							base += widthWindow + rng.Uint64()%widthWindow
						}
						want = base
					case "jitter":
						if rng.Intn(limit) == 0 { // about limit/1.5 requests per cycle
							base += 1 + rng.Uint64()%2
						}
						want = base + rng.Uint64()%64
					case "alias":
						base += rng.Uint64() % 4
						want = base + rng.Uint64()%16
						if rng.Bool(0.01) && base > 2*widthWindow {
							want = base - widthWindow - rng.Uint64()%widthWindow
						}
					}
					if got, exp := w.reserve(want), ref.reserve(want); got != exp {
						t.Fatalf("op %d: reserve(%d) = %d, reference %d", op, want, got, exp)
					}
				}
			})
		}
	}
}
