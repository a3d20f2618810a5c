package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ilp"
	"repro/internal/obs"
)

// TestRunWritesMetricsAndTrace drives the full CLI pipeline (uwcse,
// Castor) and checks the acceptance contract of the -report and -trace
// flags: the report's metrics object is valid JSON with nonzero
// coverage-test and cache-hit counters, and every trace line is a
// standalone JSON object.
func TestRunWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10, par: 2,
		Config: obs.Config{
			Seed:       1,
			ReportPath: filepath.Join(dir, "run.json"),
			TracePath:  filepath.Join(dir, "trace.jsonl"),
		},
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "learned definition") {
		t.Errorf("run output missing the definition:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "run metrics:") {
		t.Error("run output missing the metrics summary")
	}

	rf, err := os.ReadFile(o.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
			Spans    map[string]struct {
				Seconds float64 `json:"seconds"`
				Calls   int64   `json:"calls"`
			} `json:"spans"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rf, &rr); err != nil {
		t.Fatalf("run report does not parse: %v", err)
	}
	report := rr.Metrics
	for _, key := range []string{"coverage_tests", "coverage_tests_skipped", "tuples_scanned", "bottom_clauses"} {
		if report.Counters[key] == 0 {
			t.Errorf("metrics counter %s is zero: %v", key, report.Counters)
		}
	}
	if report.Spans["coverage_batch"].Calls == 0 {
		t.Error("metrics report has no coverage_batch span calls")
	}

	tf, err := os.Open(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	// The trace interleaves event lines ("event" key) with one span line
	// per finished span ("span" key); every line is exactly one of the two.
	events, spans := 0, 0
	sc := bufio.NewScanner(tf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("trace line %q does not parse: %v", sc.Text(), err)
		}
		_, isEvent := obj["event"].(string)
		_, isSpan := obj["span"].(string)
		if isEvent == isSpan {
			t.Fatalf("trace line %q is neither an event nor a span line", sc.Text())
		}
		if isEvent {
			events++
		} else {
			spans++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("trace file has no event lines")
	}
	if spans == 0 {
		t.Error("trace file has no span lines")
	}
}

func TestCoverageModeFlag(t *testing.T) {
	cases := []struct {
		flag     string
		userData bool
		dataset  string
		want     ilp.CoverageMode
		wantErr  bool
	}{
		{"direct", false, "hiv", ilp.CoverageDB, false},
		{"subsumption", false, "uwcse", ilp.CoverageSubsumption, false},
		{"auto", false, "uwcse", ilp.CoverageDB, false},
		{"auto", false, "hiv", ilp.CoverageSubsumption, false},
		{"auto", false, "imdb", ilp.CoverageSubsumption, false},
		// User data must not inherit the -dataset heuristic (the old bug:
		// -schema runs picked subsumption because -dataset defaulted free).
		{"auto", true, "hiv", ilp.CoverageDB, false},
		{"", true, "imdb", ilp.CoverageDB, false},
		{"subsumption", true, "uwcse", ilp.CoverageSubsumption, false},
		{"bogus", false, "uwcse", 0, true},
	}
	for _, c := range cases {
		got, err := coverageMode(c.flag, c.userData, c.dataset)
		if c.wantErr {
			if err == nil {
				t.Errorf("coverageMode(%q, %v, %q): want error", c.flag, c.userData, c.dataset)
			}
			continue
		}
		if err != nil {
			t.Errorf("coverageMode(%q, %v, %q): %v", c.flag, c.userData, c.dataset, err)
			continue
		}
		if got != c.want {
			t.Errorf("coverageMode(%q, %v, %q) = %v, want %v", c.flag, c.userData, c.dataset, got, c.want)
		}
	}
}
