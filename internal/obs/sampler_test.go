package obs

import (
	"testing"
	"time"
)

func TestReadRSSPositive(t *testing.T) {
	if rss := ReadRSS(); rss <= 0 {
		t.Errorf("ReadRSS() = %d, want > 0", rss)
	}
}

func TestRunSampleSetsGauges(t *testing.T) {
	reg := NewRegistry()
	sampleResources(reg, nil)
	for _, name := range []string{GRSSBytes, GRSSPeakBytes, GHeapAllocBytes,
		GHeapSysBytes, GGoroutines, GGCCycles} {
		if reg.Gauge(name) < 0 {
			t.Errorf("gauge %s = %g, want >= 0", name, reg.Gauge(name))
		}
	}
	if reg.Gauge(GRSSBytes) <= 0 || reg.Gauge(GHeapAllocBytes) <= 0 || reg.Gauge(GGoroutines) < 1 {
		t.Errorf("rss/heap/goroutines = %g/%g/%g, want positive",
			reg.Gauge(GRSSBytes), reg.Gauge(GHeapAllocBytes), reg.Gauge(GGoroutines))
	}
	if reg.Gauge(GSamples) != 1 {
		t.Errorf("resource_samples = %g, want 1", reg.Gauge(GSamples))
	}
	sampleResources(reg, nil)
	if reg.Gauge(GSamples) != 2 {
		t.Errorf("resource_samples after second pass = %g, want 2", reg.Gauge(GSamples))
	}
	// The peak gauge never drops below any sampled RSS value.
	if reg.Gauge(GRSSPeakBytes) < reg.Gauge(GRSSBytes) {
		t.Errorf("peak %g < current %g", reg.Gauge(GRSSPeakBytes), reg.Gauge(GRSSBytes))
	}
}

func TestMaxGaugeKeepsPeak(t *testing.T) {
	reg := NewRegistry()
	reg.MaxGauge("x", 10)
	reg.MaxGauge("x", 5)
	if got := reg.Gauge("x"); got != 10 {
		t.Errorf("MaxGauge kept %g, want 10", got)
	}
	reg.MaxGauge("x", 12)
	if got := reg.Gauge("x"); got != 12 {
		t.Errorf("MaxGauge kept %g, want 12", got)
	}
}

func TestSampleDoesNotBeatHeartbeat(t *testing.T) {
	// Sampling must not feed the stall watchdog: a stalled run stays
	// stalled even while the timeline keeps sampling.
	run := NewRun(nil, NewRegistry())
	before := run.beat.Load()
	sampleResources(run.Registry(), NewFlightRecorder(8))
	if run.beat.Load() != before {
		t.Error("sampleResources moved the heartbeat counter")
	}
}

func TestTimelineImmediateAndFinalSamples(t *testing.T) {
	reg := NewRegistry()
	// A huge interval: only the immediate start tick and the final Stop
	// tick ever run, so even sub-interval runs report gauges.
	tl := StartTimeline(reg, nil, time.Hour)
	if reg.Gauge(GSamples) < 1 {
		t.Error("no immediate sample at StartTimeline")
	}
	tl.Stop()
	if got := reg.Gauge(GSamples); got != 2 {
		t.Errorf("resource_samples = %g, want 2 (start + final)", got)
	}
}

func TestTimelineRecordsCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(128)
	run := NewRun(nil, reg)
	run.Add(CCoverageTests, 40)
	tl := StartTimeline(reg, fr, time.Hour)
	run.Add(CCoverageTests, 17)
	tl.Stop() // the final tick sees the movement

	recs := fr.Snapshot()
	var deltas []FlightRecord
	for _, r := range recs {
		if r.Kind == "counter" && r.Name == "coverage_tests" {
			deltas = append(deltas, r)
		}
	}
	if len(deltas) != 2 {
		t.Fatalf("flight records carry %d coverage_tests deltas, want 2: %+v", len(deltas), recs)
	}
	first, second := deltas[0], deltas[1]
	// Start tick: delta 40 from zero; final tick: delta 17 on total 57.
	if first.Value != 40 || first.Aux != 40 {
		t.Errorf("first delta = %d/%d, want 40/40", first.Value, first.Aux)
	}
	if second.Value != 17 || second.Aux != 57 {
		t.Errorf("second delta = %d/%d, want 17/57", second.Value, second.Aux)
	}
}

func TestTimelineFlightSampleRecords(t *testing.T) {
	fr := NewFlightRecorder(64)
	StartTimeline(NewRegistry(), fr, time.Hour).Stop()
	seen := map[string]bool{}
	for _, r := range fr.Snapshot() {
		if r.Kind == "sample" {
			seen[r.Name] = true
			if r.Value <= 0 && r.Name != GGoroutines {
				t.Errorf("sample %s value = %d, want > 0", r.Name, r.Value)
			}
		}
	}
	for _, want := range []string{GRSSBytes, GHeapAllocBytes, GGoroutines} {
		if !seen[want] {
			t.Errorf("no flight sample record for %s (saw %v)", want, seen)
		}
	}
}
