package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRunIsSafe: every method of a nil *Run must be a no-op, since nil
// is the default in ilp.Params.
func TestNilRunIsSafe(t *testing.T) {
	var r *Run
	if r.Tracing() {
		t.Error("nil run claims to trace")
	}
	if r.Registry() != nil {
		t.Error("nil run has a registry")
	}
	r.Emit("x", F("k", 1))
	r.Inc(CCoverageTests)
	r.Add(CTuplesScanned, 7)
	r.StartSpan("beam_round").End()
}

func TestNewRunCollapsesToNil(t *testing.T) {
	if NewRun(nil, nil) != nil {
		t.Error("NewRun(nil, nil) must return the nop run")
	}
	if NewRun(nil, NewRegistry()) == nil {
		t.Error("registry-only run collapsed")
	}
	if NewRun(NewJSONLSink(&bytes.Buffer{}), nil) == nil {
		t.Error("tracer-only run collapsed")
	}
}

func TestCounterNames(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
	}
	if Counter(-1).String() != "unknown" || numCounters.String() != "unknown" {
		t.Error("out-of-range counters must stringify as unknown")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// with -race this doubles as the data-race check for the worker pool.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				run.Inc(CCoverageTests)
				run.Add(CTuplesScanned, 2)
				run.StartWorkerSpan(nil, "coverage_batch", 0, 0).End()
			}
		}()
	}
	wg.Wait()
	if got := reg.Get(CCoverageTests); got != workers*each {
		t.Errorf("coverage_tests = %d, want %d", got, workers*each)
	}
	if got := reg.Get(CTuplesScanned); got != 2*workers*each {
		t.Errorf("tuples_scanned = %d, want %d", got, 2*workers*each)
	}
	if reg.Snapshot().Spans["coverage_batch"].Calls != workers*each {
		t.Error("span call count wrong")
	}
}

// TestSnapshotJSON: the report must round-trip as JSON with a stable
// schema — every counter present even when zero.
func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.Inc(CSubsumptionCalls)
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Counters) != int(numCounters) {
		t.Errorf("report has %d counters, want %d", len(back.Counters), numCounters)
	}
	if back.Counters["subsumption_calls"] != 1 {
		t.Errorf("subsumption_calls = %d", back.Counters["subsumption_calls"])
	}
}

func TestWriteSummarySkipsZeros(t *testing.T) {
	reg := NewRegistry()
	NewRun(nil, reg).Add(CBottomLiterals, 42)
	var buf bytes.Buffer
	reg.Snapshot().WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "bottom_literals") || !strings.Contains(out, "42") {
		t.Errorf("summary missing nonzero counter:\n%s", out)
	}
	if strings.Contains(out, "armg_calls") {
		t.Errorf("summary shows zero counter:\n%s", out)
	}
}

// TestJSONLSink: every emitted line must parse as a standalone JSON object
// with the fixed t/event keys plus the event's own fields, in order.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	run := NewRun(sink, nil)
	run.Emit("castor.seed", F("seed", "advisedBy(s, p)"), F("try", 3))
	run.Emit("weird", F("val", map[string]int{"n": 1}), F("list", []string{"a", "b"}))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q does not parse: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	if lines[0]["event"] != "castor.seed" || lines[0]["seed"] != "advisedBy(s, p)" {
		t.Errorf("first line = %v", lines[0])
	}
	if _, err := time.Parse(time.RFC3339Nano, lines[0]["t"].(string)); err != nil {
		t.Errorf("timestamp does not parse: %v", err)
	}
	if lines[1]["list"].([]any)[1] != "b" {
		t.Errorf("slice field mangled: %v", lines[1])
	}
}

// TestJSONLSinkConcurrent verifies whole-line atomicity under concurrent
// emitters (coverage workers share one sink).
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.Emit(Event{Time: time.Unix(0, 0), Name: "e", Fields: []Field{F("w", w), F("i", i)}})
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved line: %q", sc.Text())
		}
		n++
	}
	if n != 8*50 {
		t.Errorf("got %d lines, want %d", n, 8*50)
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(NewTextSink(&buf), nil)
	run.Emit("covering.accepted", F("clause", "t(X) :- p(X)."), F("pos", 5))
	out := buf.String()
	if !strings.Contains(out, "covering.accepted") || !strings.Contains(out, "pos=5") {
		t.Errorf("text sink output %q", out)
	}
}

func TestMultiTracer(t *testing.T) {
	var a, b bytes.Buffer
	sa, sb := NewJSONLSink(&a), NewJSONLSink(&b)
	mt := MultiTracer(nil, sa, nil, sb)
	mt.Emit(Event{Time: time.Unix(0, 0), Name: "x"})
	sa.Flush()
	sb.Flush()
	if a.Len() == 0 || b.Len() == 0 {
		t.Error("fan-out missed a sink")
	}
	if MultiTracer(nil, nil) != nil {
		t.Error("all-nil MultiTracer must collapse to nil")
	}
	if MultiTracer(sa) != Tracer(sa) {
		t.Error("single tracer must pass through unwrapped")
	}
}
