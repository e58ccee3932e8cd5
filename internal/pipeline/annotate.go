package pipeline

import (
	"fmt"

	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/trace"
)

// One annotation record per instruction, one byte each. Cache levels
// are stored as serving depths (0 = L1 hit ... 3 = memory) rather than
// latencies, so any HierarchyConfig's latencies — memory latencies
// above 255 included — map back exactly through the depth tables.
const (
	recIDepth  = 0x03 // bits 0-1: L1I serving depth of the fetch
	recDShift  = 2    // bits 2-3: L1D serving depth (loads only)
	recDDepth  = 0x03 << recDShift
	recBTBMiss = 0x10 // bit 4: taken branch whose target the BTB/RAS missed
	maxDepths  = 4    // serving depths a 2-bit field can hold
)

// Annotation is stage A of the layered model: everything the timing
// recurrence needs from the cache hierarchy and the BTB. Both are
// touched in program order only — the model has no wrong path — and
// neither depends on the pipeline scale, so one annotation serves every
// scale and every prediction regime of a trace. It costs one byte per
// instruction. Treat it as immutable: Time only reads it, so one
// annotation may be shared by concurrent timing runs.
type Annotation struct {
	caches cache.HierarchyConfig
	btb    btb.Config
	btbOn  bool

	iLat, dLat [maxDepths]uint64 // latency by serving depth
	rec        []uint8
	l1dMisses  uint64
}

// Annotate runs stage A over tr with cfg's cache hierarchy and BTB,
// both starting cold. Only those two parts of cfg matter: the result
// serves Time for cfg.Scaled(k) at every k.
func Annotate(cfg Config, tr trace.Replayable) *Annotation {
	an := newAnnotator(cfg)
	a := &Annotation{
		caches: cfg.Caches,
		btb:    cfg.BTB,
		btbOn:  an.btb != nil,
		iLat:   an.iLat,
		dLat:   an.dLat,
		rec:    make([]uint8, tr.Len()),
	}
	bs := tr.BlockStream(0)
	i := 0
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		an.block(blk, a.rec[i:i+len(blk)])
		i += len(blk)
	}
	a.l1dMisses = an.hier.L1D.Stats().Misses
	return a
}

// check panics unless a was made for cfg's caches and BTB over a trace
// of n instructions: timing a trace against another trace's or another
// machine's annotation is a caller bug that would yield wrong numbers.
func (a *Annotation) check(cfg Config, n int) {
	if a.caches != cfg.Caches || a.btb != cfg.BTB || a.btbOn != (cfg.BTBMissPenalty > 0) {
		panic("pipeline: annotation was made for a different cache/BTB configuration")
	}
	if len(a.rec) != n {
		panic(fmt.Sprintf("pipeline: annotation covers %d instructions, trace has %d", len(a.rec), n))
	}
}

// annotator is stage A's state: the cache hierarchy and the BTB (nil
// when target prediction is disabled), plus the depth-to-latency maps.
type annotator struct {
	hier       *cache.Hierarchy
	btb        *btb.BTB
	iLat, dLat [maxDepths]uint64
}

func newAnnotator(cfg Config) *annotator {
	an := &annotator{hier: cache.NewHierarchy(cfg.Caches)}
	if cfg.BTBMissPenalty > 0 {
		an.btb = btb.New(cfg.BTB)
	}
	// NewHierarchy's three levels give four serving depths, which fill
	// the 2-bit record fields exactly.
	copy(an.iLat[:], an.hier.L1I.Latencies())
	copy(an.dLat[:], an.hier.L1D.Latencies())
	return an
}

// block annotates blk into rec (len(rec) == len(blk)) in program order:
// the fetch's L1I access, a load's L1D access, then the branch's BTB
// lookup and update — the order the fused model performs them in.
func (an *annotator) block(blk []trace.Inst, rec []uint8) {
	rec = rec[:len(blk)]
	l1i, l1d, b := an.hier.L1I, an.hier.L1D, an.btb
	for j := range blk {
		inst := &blk[j]
		r := uint8(l1i.Probe(inst.IP))
		if inst.Kind == trace.KindLoad {
			r |= uint8(l1d.Probe(inst.MemAddr)) << recDShift
		}
		if b != nil && inst.Kind.IsBranch() {
			predTarget, hit := b.Lookup(inst.IP, inst.Kind)
			if !b.Update(inst.IP, inst.Target, inst.Kind, inst.Taken, predTarget, hit) {
				r |= recBTBMiss
			}
		}
		rec[j] = r
	}
}
