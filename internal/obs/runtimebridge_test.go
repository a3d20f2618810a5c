package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

func TestRuntimeBridgeGauges(t *testing.T) {
	reg := NewRegistry()
	runtime.GC() // guarantee at least one pause in the cumulative history
	reg.sampleRuntime()
	if got := reg.Gauge(GGomaxprocs); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("gomaxprocs gauge = %v, want %v", got, runtime.GOMAXPROCS(0))
	}
	if reg.Gauge(GHeapGoalBytes) <= 0 {
		t.Errorf("heap goal gauge = %v, want > 0", reg.Gauge(GHeapGoalBytes))
	}
	if reg.Gauge(GOSThreads) < 1 {
		t.Errorf("os_threads_created gauge = %v, want >= 1", reg.Gauge(GOSThreads))
	}
	if n := reg.Histogram(HGCPause).Count(); n <= 0 {
		t.Errorf("gc_pause histogram count = %d, want > 0 after first sample", n)
	}
}

func TestRuntimeBridgeDeltaFoldNoDoubleCount(t *testing.T) {
	reg := NewRegistry()
	reg.sampleRuntime()
	h := reg.Histogram(HGCPause)
	before := h.Count()
	// Back-to-back samples with no intervening GC must not re-fold the
	// cumulative history.
	reg.sampleRuntime()
	if after := h.Count(); after != before {
		t.Errorf("gc_pause count grew %d -> %d with no GC between samples", before, after)
	}
	runtime.GC()
	reg.sampleRuntime()
	if after := h.Count(); after <= before {
		t.Errorf("gc_pause count = %d, want > %d after a forced GC", after, before)
	}
}

func TestFoldHistDelta(t *testing.T) {
	var h Histogram
	rh := &metrics.Float64Histogram{
		Counts:  []uint64{2, 3, 0},
		Buckets: []float64{0, 1e-6, 1e-3, 1},
	}
	last := foldHistDelta(&h, rh, nil)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	// No growth: nothing folded.
	last = foldHistDelta(&h, rh, last)
	if h.Count() != 5 {
		t.Fatalf("count = %d after no-op fold, want 5", h.Count())
	}
	// One new observation in bucket 1, upper bound 1ms.
	rh.Counts[1]++
	sumBefore := h.Snapshot().SumSeconds
	foldHistDelta(&h, rh, last)
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if d := h.Snapshot().SumSeconds - sumBefore; math.Abs(d-time.Millisecond.Seconds()) > 1e-12 {
		t.Errorf("sum grew by %gs, want 1ms (bucket upper bound)", d)
	}
}

func TestSampleIncludesRuntimeBridge(t *testing.T) {
	reg := NewRegistry()
	sampleResources(reg, nil)
	if reg.Gauge(GGomaxprocs) <= 0 {
		t.Errorf("sampleResources did not populate gomaxprocs gauge")
	}
}
