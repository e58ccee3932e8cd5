package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/program"
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
	var miss *bp.MispredictMap
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
			tr := recordWorkload(t, s, layeredBudget)
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
			tr := recordWorkload(t, s, layeredBudget)
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

// TestLayeredMatchesReferenceWideScales covers scales past 73x, where
// the ROB no longer fits half of the minimum width-limiter window and
// the window grows with the configuration (widthWindow), under perfect
// prediction on every workload.
func TestLayeredMatchesReferenceWideScales(t *testing.T) {
	for _, s := range allWorkloads() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr := recordWorkload(t, s, layeredBudget)
			a := Annotate(Skylake(), tr)
			for _, k := range []int{128, 256} {
				cfg := Skylake().Scaled(k)
				want := Reference(cfg, tr.Stream(), Options{PerfectBP: true})
				if got := Time(cfg, tr, a, nil); got != want {
					t.Errorf("%dx: layered %+v != reference %+v", k, got, want)
				}
			}
		})
	}
}

// TestWidthWindowSizing pins the window rule: the minimum ring through
// 73x (the scales the model was calibrated at keep their numbers), and
// the smallest power of two with ROBSize+FrontDepth <= window/2 beyond.
func TestWidthWindowSizing(t *testing.T) {
	for _, c := range []struct {
		k    int
		want uint64
	}{{1, 1 << 15}, {32, 1 << 15}, {73, 1 << 15}, {74, 1 << 16}, {146, 1 << 16}, {147, 1 << 17}, {256, 1 << 17}} {
		if got := widthWindow(Skylake().Scaled(c.k)); got != c.want {
			t.Errorf("%dx: window %d, want %d", c.k, got, c.want)
		}
	}
}

// TestInvalidConfigRejected checks that widths the 16-bit per-cycle
// counts cannot hold, and empty queues, are rejected by Validate and
// by every timing entry point.
func TestInvalidConfigRejected(t *testing.T) {
	maxK := MaxWidth / Skylake().IssueWidth
	if err := Skylake().Scaled(maxK).Validate(); err != nil {
		t.Errorf("%dx rejected: %v", maxK, err)
	}
	wideIssue := Skylake()
	wideIssue.Name, wideIssue.IssueWidth = "wide-issue", MaxWidth+1
	noSQ := Skylake()
	noSQ.Name, noSQ.SQSize = "no-sq", 0
	tr := branchyTrace(100, 1, 0.5)
	a := Annotate(Skylake(), tr)
	for _, cfg := range []Config{Skylake().Scaled(maxK + 1), wideIssue, noSQ} {
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig", cfg.Name, err)
		}
		for name, run := range map[string]func(){
			"Time":      func() { Time(cfg, tr, a, nil) },
			"Reference": func() { Reference(cfg, tr.Stream(), Options{PerfectBP: true}) },
			"Run":       func() { New(cfg).Run(tr.Stream(), Options{PerfectBP: true}) },
		} {
			func() {
				defer func() {
					if err, _ := recover().(error); !errors.Is(err, ErrInvalidConfig) {
						t.Errorf("%s %s: panic %v, want ErrInvalidConfig", cfg.Name, name, err)
					}
				}()
				run()
			}()
		}
	}
}

// stepRequests times tr one instruction at a time and checks the
// frontier limiters' contract on every request: fetch and retire
// requests never decrease, and fetch's latest claim is less than a
// window ahead of its next request (the ring it replaced never
// aliases). The stepped run must also return Time's Result.
func stepRequests(t *testing.T, cfg Config, tr *trace.Buffer, a *Annotation, miss *bp.MispredictMap) {
	t.Helper()
	tm := newTimer(cfg, a.iLat, a.dLat)
	window := widthWindow(cfg)
	var fetch, retire uint64
	bs := tr.BlockStream(0)
	i := 0
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			claimed := tm.fetchLim.cur
			tm.block(blk[j:j+1], a.rec[i:i+1], miss)
			i++
			f, r := tm.fetchLim.last, tm.retireLim.last
			if f < fetch || r < retire {
				t.Fatalf("%s instruction %d: fetch request %d after %d, retire request %d after %d",
					cfg.Name, i, f, fetch, r, retire)
			}
			if claimed >= f+window {
				t.Fatalf("%s instruction %d: fetch request %d a window behind claim %d", cfg.Name, i, f, claimed)
			}
			fetch, retire = f, r
		}
	}
	if got, want := tm.result(a.l1dMisses), Time(cfg, tr, a, miss); got != want {
		t.Errorf("%s: stepped %+v != Time %+v", cfg.Name, got, want)
	}
}

// TestTimingInvariants checks properties any sound timing model has,
// over every workload: the prediction stage agrees with core.Run; IPC
// never exceeds the fetch width; perfect prediction is never slower
// than a real predictor at the same scale; and under perfect
// prediction a wider machine is never slower. It also checks the
// precondition of the frontier limiters: fetch and retire requests are
// non-decreasing (stepRequests).
func TestTimingInvariants(t *testing.T) {
	scales := []int{1, 2, 4, 8, 16, 32}
	for _, s := range allWorkloads() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr := recordWorkload(t, s, layeredBudget)
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
				stepRequests(t, cfg, tr, a, nil)
				stepRequests(t, cfg, tr, a, miss)
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

// TestWidthLimiterMatchesReference drives the stage-C limiters and the
// reference's eagerly cleared, linearly probed one with the same request
// sequences and requires identical claims: the two-word frontier
// limiter on non-decreasing streams like fetch and retire (with jumps
// past the ring), and the packed ring limiter on those, on streams
// jittering like issue, and on streams with requests old enough to
// alias a newer cycle's slot.
func TestWidthLimiterMatchesReference(t *testing.T) {
	for _, mode := range []string{"monotone", "jitter", "alias"} {
		for _, limit := range []int{1, 2, 6, 96} {
			t.Run(fmt.Sprintf("%s/limit=%d", mode, limit), func(t *testing.T) {
				for _, window := range []uint64{minWidthWindow, 64} {
					t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
						rng := xrand.New(uint64(limit) + uint64(len(mode)) + window)
						ring, ref := newRingLimiter(limit, window), newRefLimiter(limit, window)
						front := newFrontierLimiter(limit)
						var base uint64
						for op := 0; op < 200000; op++ {
							want := base
							switch mode {
							case "monotone":
								base += rng.Uint64() % 3
								if rng.Bool(0.001) {
									base += window + rng.Uint64()%window
								}
								// Stay within the frontier limiter's contract,
								// as the pipeline's window sizing does: claims
								// less than a window ahead of every request.
								if front.cur >= base+window {
									base = front.cur - window/2
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
								if rng.Bool(0.01) && base > 2*window {
									want = base - window - rng.Uint64()%window
								}
							}
							exp := ref.reserve(want)
							if got := ring.reserve(want); got != exp {
								t.Fatalf("op %d: ring reserve(%d) = %d, reference %d", op, want, got, exp)
							}
							if mode != "monotone" {
								continue
							}
							if got := front.reserve(want); got != exp {
								t.Fatalf("op %d: frontier reserve(%d) = %d, reference %d", op, want, got, exp)
							}
						}
					})
				}
			})
		}
	}
}

// FuzzWidthLimiters decodes a limit, a ring window and a stream of
// signed request deltas, and requires the reference limiter's claims
// from the ring limiter on the raw stream and from the frontier limiter
// on its prefix maximum (the non-decreasing stream fetch and retire
// make). The frontier comparison stops where the stream leaves that
// limiter's contract: claims a full window ahead of a request, which
// the pipeline rules out by sizing the window (widthWindow). Requests
// stay within four windows of the highest one, which still aliases but
// keeps both limiters' linear probes short, and at most 4096 requests
// are decoded, so every input runs quickly.
func FuzzWidthLimiters(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0xff, 0xff, 3, 0})
	f.Add([]byte{3, 2, 0, 0, 0, 0, 0, 0, 0x40, 0, 0xc0, 0xff, 2, 0})
	f.Add([]byte{1, 11, 0, 0x80, 5, 0, 0x10, 0x80, 0xf0, 0x7f})
	// Limit 1, a 16-cycle window, forty one-cycle steps, then a request
	// 35 cycles back, whose slots newer cycles own.
	alias := []byte{0, 0}
	for i := 0; i < 40; i++ {
		alias = append(alias, 1, 0)
	}
	f.Add(append(alias, 0xdd, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		limit := []int{1, 2, 3, 6, 96}[int(data[0])%5]
		window := uint64(16) << (data[1] % 8)
		ring, rawRef := newRingLimiter(limit, window), newRefLimiter(limit, window)
		front, maxRef := newFrontierLimiter(limit), newRefLimiter(limit, window)
		frontOK := true
		var raw, prefixMax uint64
		for i := 2; i+1 < min(len(data), 2+2*4096); i += 2 {
			d := int64(int16(binary.LittleEndian.Uint16(data[i:])))
			if d < 0 && uint64(-d) > raw {
				raw = 0
			} else {
				raw = uint64(int64(raw) + d)
			}
			if raw+4*window < prefixMax {
				raw = prefixMax - 4*window
			}
			if got, exp := ring.reserve(raw), rawRef.reserve(raw); got != exp {
				t.Fatalf("request %d: ring reserve(%d) = %d, reference %d", i/2, raw, got, exp)
			}
			prefixMax = max(prefixMax, raw)
			if frontOK = frontOK && front.cur < prefixMax+window; !frontOK {
				continue
			}
			if got, exp := front.reserve(prefixMax), maxRef.reserve(prefixMax); got != exp {
				t.Fatalf("request %d: frontier reserve(%d) = %d, reference %d", i/2, prefixMax, got, exp)
			}
		}
	})
}

// recordWorkload records input 0 of s at budget, failing the test on
// error.
func recordWorkload(t testing.TB, s *workload.Spec, budget uint64) *trace.Buffer {
	t.Helper()
	rec, err := s.Record(context.Background(), 0, budget, program.Request{})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Buffer()
}
