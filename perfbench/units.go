package main

import "strings"

// units gives every reported metric its unit. Times ending in _s and
// the end-to-end metrics are host time; pipeline.cycles is the one
// simulated-time metric.
var units = map[string]string{
	"setup_s":      "s",
	"run_s":        "s",
	"cpu_s":        "s",
	"peak_rss_mib": "MiB",

	"engine.utilization": "ratio",
	"record.s":           "s",
	"record.minst":       "Minst",
	"record.mips":        "Minst/s",

	"tracecache.misses":         "count",
	"tracecache.slice_hits":     "count",
	"tracecache.evictions":      "count",
	"tracecache.rerecords":      "count",
	"tracecache.memo_hit_ratio": "ratio",
	"tracecache.resident_mib":   "MiB",
	"tracestore.hdr_hits":       "count",
	"tracestore.slice_hits":     "count",
	"tracestore.writes":         "count",
	"tracestore.rejects":        "count",

	"core.replay.mips":          "Minst/s",
	"tage.mips":                 "Minst/s",
	"tage.mispreds":             "count",
	"pipeline.perfect_1x.mips":  "Minst/s",
	"pipeline.perfect_16x.mips": "Minst/s",
	"pipeline.tage8_1x.mips":    "Minst/s",
	"pipeline.cycles":           "cycles",
	"cache.mips":                "Minst/s",
	"cache.l1d_misses":          "count",
	"btb.mips":                  "Minst/s",
	"btb.misses":                "count",
	"observers.collector.mips":  "Minst/s",
	"observers.bbv.mips":        "Minst/s",
	"observers.depgraph.mips":   "Minst/s",
	"observers.recurrence.mips": "Minst/s",
	"cnn.train_s":               "s",
	"cnn.samples":               "count",

	"go.gc_cpu_s":      "s",
	"go.alloc_gib":     "GiB",
	"trace_overhead_s": "s",
	"host.steal_s":     "s",
	"host.invol_csw":   "count",
}

// unitOf returns name's unit; every experiments.<id>.s span is seconds.
func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	if strings.HasPrefix(name, "experiments.") && strings.HasSuffix(name, ".s") {
		return "s"
	}
	panic("perfbench: metric without a unit: " + name)
}
