package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A resource sample captures what the learner itself cannot see: how
// much memory the process actually holds (RSS from the kernel, not just
// Go heap accounting), how the heap and GC are behaving, and how many
// goroutines are live. The timeline takes one on every tick. Samples land
// in two places — registry gauges (so /metrics and run reports carry
// rss_peak_bytes and friends) and the flight recorder (so a post-mortem
// dump shows the memory trajectory leading up to the crash). The
// heartbeat counter is deliberately NOT touched: a run can be stalled
// while the timeline keeps sampling.

// ReadRSS returns the process's resident set size in bytes: the second
// field of /proc/self/statm (pages) on Linux, falling back to
// runtime.MemStats.Sys — the Go runtime's OS reservation — where procfs
// is unavailable.
func ReadRSS() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		fields := strings.Fields(string(b))
		if len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// Gauge names Sample maintains. resource_samples counts samples taken,
// so reports show the timeline was actually on.
const (
	GRSSBytes       = "rss_bytes"
	GRSSPeakBytes   = "rss_peak_bytes"
	GHeapAllocBytes = "heap_alloc_bytes"
	GHeapSysBytes   = "heap_sys_bytes"
	GGoroutines     = "goroutines"
	GGCCycles       = "gc_cycles"
	GGCPauseSeconds = "gc_pause_total_seconds"
	GSamples        = "resource_samples"
)

// sampleResources captures one resource measurement into the registry
// gauges and the flight ring (fr may be nil): RSS (current and peak), heap
// alloc/sys, GC cycle and pause totals, and the live goroutine count. It
// is the first step of every timeline tick.
func sampleResources(reg *Registry, fr *FlightRecorder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := ReadRSS()
	g := int64(runtime.NumGoroutine())
	reg.SetGauge(GRSSBytes, float64(rss))
	reg.MaxGauge(GRSSPeakBytes, float64(rss))
	reg.SetGauge(GHeapAllocBytes, float64(ms.HeapAlloc))
	reg.SetGauge(GHeapSysBytes, float64(ms.HeapSys))
	reg.SetGauge(GGoroutines, float64(g))
	reg.SetGauge(GGCCycles, float64(ms.NumGC))
	reg.SetGauge(GGCPauseSeconds, time.Duration(ms.PauseTotalNs).Seconds())
	reg.AddGauge(GSamples, 1)
	reg.sampleRuntime()
	fr.Record(FKSample, GRSSBytes, rss, 0)
	fr.Record(FKSample, GHeapAllocBytes, int64(ms.HeapAlloc), 0)
	fr.Record(FKSample, GGoroutines, g, 0)
}
