package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSessionTracePathPicksFormat: -trace writes a Chrome trace-event file
// for a .json path and the JSONL trace otherwise.
func TestSessionTracePathPicksFormat(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"trace.json", "trace.jsonl"} {
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		s, err := Open(Config{TracePath: path}, &out)
		if err != nil {
			t.Fatal(err)
		}
		s.Run().StartSpan("learn").End()
		if err := s.Close(&RunReport{Tool: "test"}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		isChrome := json.Unmarshal(b, &chrome) == nil && len(chrome.TraceEvents) > 0
		if isChrome != strings.HasSuffix(name, ".json") {
			t.Errorf("%s: Chrome trace = %v:\n%s", name, isChrome, b)
		}
		if !isChrome && !strings.Contains(string(b), `"span":"learn"`) {
			t.Errorf("%s: JSONL trace has no learn span line:\n%s", name, b)
		}
		if !strings.Contains(out.String(), "run metrics:") {
			t.Errorf("%s: -trace run printed no summary table", name)
		}
	}
}

// TestSessionFillsReportAndDumpsRing: Close fills the report's env,
// metrics, timeline and attribution, and the run-end flight dump holds the
// span records the ring received as an ordinary span sink.
func TestSessionFillsReportAndDumpsRing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		ReportPath: filepath.Join(dir, "run.json"),
		FlightPath: filepath.Join(dir, "flight.jsonl"),
		Seed:       7,
	}
	var out bytes.Buffer
	s, err := Open(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	s.Run().StartSpan("learn").End()
	if err := s.Close(&RunReport{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("summary printed without -trace:\n%s", out.String())
	}
	rep, err := LoadRunReport(cfg.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env == nil || rep.Env.GoVersion == "" || rep.Env.Seed != 7 {
		t.Errorf("env = %+v, want go_version and seed 7", rep.Env)
	}
	if rep.Metrics.Spans["learn"].Calls != 1 || rep.Timeline == nil || rep.Attrib == nil {
		t.Errorf("report missing metrics, timeline or attribution: %+v", rep)
	}
	b, err := os.ReadFile(cfg.FlightPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"flight_meta"`, `"kind":"span_start","name":"learn"`, `"kind":"span_end","name":"learn"`, `"name":"dump:run_end"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("flight dump missing %s:\n%s", want, b)
		}
	}
}

// TestSessionOpenError: a failing Open returns the error after releasing
// the half-built session (SIGQUIT handler, sinks) it had started.
func TestSessionOpenError(t *testing.T) {
	_, err := Open(Config{TracePath: filepath.Join(t.TempDir(), "missing", "t.jsonl")}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("Open with an unwritable trace path succeeded")
	}
}
