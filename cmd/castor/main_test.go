package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/obs"
)

// readJSONL decodes a JSON-lines artifact, one object per non-empty line.
func readJSONL(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("%s: line %q does not parse: %v", filepath.Base(path), sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// num reads a JSON number field; absent or non-numeric reads as 0.
func num(obj map[string]any, key string) float64 {
	v, _ := obj[key].(float64)
	return v
}

// TestRunWritesMetricsAndTrace drives the full CLI pipeline (uwcse,
// Castor) with every file artifact on — span trace, run report,
// provenance and timeline at a 1ms tick — and checks each one's contract,
// then reruns the learn with a Chrome trace. These are the checks CI runs
// on the artifacts it uploads.
func TestRunWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10, par: 8,
		Config: obs.Config{
			Seed:           1,
			ReportPath:     filepath.Join(dir, "run.json"),
			TracePath:      filepath.Join(dir, "trace.jsonl"),
			ProvenancePath: filepath.Join(dir, "prov.jsonl"),
			TimelinePath:   filepath.Join(dir, "timeline.jsonl"),
			TimelineTick:   time.Millisecond,
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

	t.Run("trace", func(t *testing.T) {
		// Every line is a span line, and the span graph is reconstructable
		// offline from the trace: unique IDs, parents resolving in-file,
		// exactly one learn root, round tags on the pooled worker spans.
		spans := readJSONL(t, o.TracePath)
		if len(spans) == 0 {
			t.Fatal("empty JSONL trace")
		}
		byID := map[float64]map[string]any{}
		for _, sp := range spans {
			if _, ok := sp["span"].(string); !ok {
				t.Fatalf("trace line %v is not a span line", sp)
			}
			if _, ok := sp["t"]; !ok {
				t.Fatalf("trace line %v has no t", sp)
			}
			id := num(sp, "id")
			if byID[id] != nil {
				t.Fatalf("duplicate span id %v in trace", id)
			}
			byID[id] = sp
		}
		learnRoots, workers := 0, 0
		for _, sp := range spans {
			if parent := num(sp, "parent"); parent != 0 {
				if byID[parent] == nil {
					t.Fatalf("span %v has parent %v outside the trace", sp["id"], parent)
				}
			} else if sp["span"] == "learn" {
				learnRoots++
			}
			if w, ok := sp["worker"].(float64); ok && w >= 0 {
				workers++
				if num(sp, "round") == 0 {
					t.Fatalf("worker span %v has no round tag", sp)
				}
			}
		}
		if learnRoots != 1 {
			t.Errorf("trace has %d learn roots, want 1", learnRoots)
		}
		if workers == 0 {
			t.Error("no worker spans at -par 8")
		}
	})

	rep, err := obs.LoadRunReport(o.ReportPath)
	if err != nil {
		t.Fatalf("run report does not load: %v", err)
	}
	t.Run("report", func(t *testing.T) {
		m := rep.Metrics
		for _, key := range []string{"coverage_tests", "coverage_tests_skipped", "tuples_scanned", "bottom_clauses"} {
			if m.Counters[key] == 0 {
				t.Errorf("metrics counter %s is zero: %v", key, m.Counters)
			}
		}
		if m.Spans["learn"].Calls != 1 {
			t.Errorf("learn span calls = %d, want 1", m.Spans["learn"].Calls)
		}
		if m.Spans["coverage_batch"].Calls == 0 {
			t.Error("metrics report has no coverage_batch span calls")
		}
		if rep.Env == nil || rep.Env.GoVersion == "" {
			t.Error("report missing env context")
		}
		if len(m.Store) == 0 {
			t.Error("report missing relstore stats")
		}
		// Attribution telescopes: self-time percentages cover the learn
		// wall clock to within the acceptance band.
		if rep.Attrib == nil || rep.Attrib.WallNS <= 0 {
			t.Fatalf("report attribution = %+v, want wall_ns > 0", rep.Attrib)
		}
		pct, learnRow, shardRow := 0.0, false, false
		for _, r := range rep.Attrib.Rows {
			pct += r.Pct
			learnRow = learnRow || r.Kind == "learn"
			shardRow = shardRow || strings.HasPrefix(r.Kind, "shard_")
		}
		if pct < 98 || pct > 102 {
			t.Errorf("attribution pct sums to %.2f, want [98, 102]", pct)
		}
		if !learnRow || !shardRow {
			t.Errorf("attribution rows lack learn or shard_* kinds: %+v", rep.Attrib.Rows)
		}
	})

	t.Run("provenance", func(t *testing.T) {
		prov := readJSONL(t, o.ProvenancePath)
		if len(prov) == 0 || prov[0]["kind"] != "meta" || prov[len(prov)-1]["kind"] != "summary" {
			t.Fatalf("provenance does not run meta .. summary")
		}
		nodes := map[float64]bool{}
		var selects []map[string]any
		for _, p := range prov {
			switch p["kind"] {
			case "node":
				nodes[num(p, "id")] = true
			case "select":
				selects = append(selects, p)
			}
		}
		if len(nodes) == 0 || len(selects) == 0 {
			t.Fatalf("provenance has %d nodes and %d selects, want both", len(nodes), len(selects))
		}
		for _, s := range selects {
			if !nodes[num(s, "node")] {
				t.Errorf("select %v references a missing node", s)
			}
		}
	})

	t.Run("timeline", func(t *testing.T) {
		tl := readJSONL(t, o.TimelinePath)
		if len(tl) == 0 || tl[0]["kind"] != "timeline_meta" {
			t.Fatalf("timeline does not start with timeline_meta")
		}
		if num(tl[0], "ticks") < 2 {
			t.Errorf("timeline meta %v, want ticks >= 2", tl[0])
		}
		series := map[string]int{}
		for _, p := range tl[1:] {
			if p["kind"] != "point" {
				continue
			}
			name, _ := p["series"].(string)
			_, hasT := p["t"]
			v, hasV := p["v"].(float64)
			if name == "" || !hasT || !hasV {
				t.Fatalf("timeline point %v lacks series, t or v", p)
			}
			series[name]++
			if name == "pool_busy_ratio" && (v <= 0 || v > 1) {
				t.Errorf("pool_busy_ratio point %v outside (0, 1]", v)
			}
		}
		// How many ticks land inside pooled rounds depends on the host's
		// speed, so the floor of two pool_busy_ratio samples stays a CI
		// gate on the report digest (obsreport's
		// timeline_pool_busy_ratio_count); here the file and the digest
		// must agree on the count. A learn this short never wraps a ring.
		for _, name := range []string{"pool_busy_ratio", "gc_pause_total_seconds", "coverage_tests"} {
			if series[name] == 0 {
				t.Errorf("timeline has no %s series", name)
			}
		}
		if rep.Timeline == nil {
			t.Fatal("run report missing the timeline digest")
		}
		if got := rep.Timeline.Series["pool_busy_ratio"].Count; got != int64(series["pool_busy_ratio"]) {
			t.Errorf("report digest counts %d pool_busy_ratio samples, the timeline file %d", got, series["pool_busy_ratio"])
		}
	})

	t.Run("chrome", func(t *testing.T) {
		// A -trace path ending in .json writes the Chrome trace-event file.
		co := o
		co.Config = obs.Config{Seed: 1, TracePath: filepath.Join(dir, "trace-chrome.json")}
		if err := run(co, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(co.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Tid  int    `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &chrome); err != nil {
			t.Fatalf("Chrome trace does not parse: %v", err)
		}
		slices, learnSlice, workerTrack := 0, false, false
		for _, e := range chrome.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			slices++
			learnSlice = learnSlice || e.Name == "learn"
			workerTrack = workerTrack || e.Tid >= 2
		}
		if slices == 0 || !learnSlice || !workerTrack {
			t.Errorf("Chrome trace: %d slices, learn slice %v, worker-track slice %v", slices, learnSlice, workerTrack)
		}
	})
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
