package obs

import (
	"testing"
	"time"
)

// TestNilRunFastPathAllocs pins the contract the learner hot paths rely
// on: with observability off (nil *Run), every instrumentation call is a
// pointer test and nothing else — zero allocations. Call sites that pass
// fields guard them behind Spanning(), so the no-field forms
// below are the ones that run uninstrumented.
func TestNilRunFastPathAllocs(t *testing.T) {
	var r *Run
	var fr *FlightRecorder
	cases := map[string]func(){
		"Inc":           func() { r.Inc(CCoverageTests) },
		"Add":           func() { r.Add(CTuplesScanned, 42) },
		"Span":          func() { r.StartSpan("learn").End() },
		"WorkerSpan":    func() { r.StartWorkerSpan(nil, "shard", 1, 0).End() },
		"CurrentSpan":   func() { _ = r.CurrentSpan() },
		"Annotate":      func() { r.StartSpan("learn").Annotate() },
		"Spanning":      func() { _ = r.Spanning() },
		"Registry":      func() { _ = r.Registry() },
		"Heartbeat":     func() { r.Heartbeat() },
		"FlightRecord":  func() { fr.Record(FKMark, "m", 0, 0) },
		"StartWatchdog": func() { StartWatchdog(r, fr, time.Second, nil).Stop() },
		"StartTimeline": func() { StartTimeline(nil, fr, time.Second).Stop() },
		"TimelineSummary": func() {
			var tl *Timeline
			_ = tl.Summary()
		},
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s on nil run: %v allocs/op, want 0", name, allocs)
		}
	}
}
