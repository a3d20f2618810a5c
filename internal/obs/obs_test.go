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
	if r.Registry() != nil {
		t.Error("nil run has a registry")
	}
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
		t.Error("span-sink-only run collapsed")
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

// TestJSONLSink: every span line must parse as a standalone JSON object
// with the fixed t/span/id/parent/worker/round/start_ns/dur_ns keys plus
// the span's own fields, in order.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	run := NewRun(sink, nil)
	sp := run.StartSpan("seed_try", F("seed", "advisedBy(s, p)"), F("try", 3))
	sp.Annotate(F("weird", map[string]int{"n": 1}), F("list", []string{"a", "b"}))
	sp.End()
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
	if len(lines) != 1 {
		t.Fatalf("wrote %d lines, want 1", len(lines))
	}
	line := lines[0]
	if line["span"] != "seed_try" || line["seed"] != "advisedBy(s, p)" || line["try"] != float64(3) {
		t.Errorf("line = %v", line)
	}
	for _, key := range []string{"id", "parent", "worker", "round", "start_ns", "dur_ns"} {
		if _, ok := line[key]; !ok {
			t.Errorf("line lacks %q: %v", key, line)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, line["t"].(string)); err != nil {
		t.Errorf("timestamp does not parse: %v", err)
	}
	if line["list"].([]any)[1] != "b" {
		t.Errorf("slice field mangled: %v", line)
	}
}

// TestJSONLSinkConcurrent verifies whole-line atomicity under concurrent
// writers (pool workers end their shard spans into one sink).
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.SpanEnd(&Span{Name: "shard", Start: time.Unix(0, 0), Worker: w,
					Fields: []Field{F("i", i)}}, time.Microsecond)
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
