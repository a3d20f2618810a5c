package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against: every declared metric must be emitted, with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallOptions runs a workload at a fraction of its scale, briefly.
func smallOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     1,
		seconds:  0.01,
		trace:    trace,
		par:      0, // each workload's own core count, as the command runs it
		setups:   1,
		shrink:   0.05,
		traceDir: t.TempDir(),
	}
}

// TestEveryMetricEmitted runs every workload of the command at small
// scale, untraced and traced, and checks that the result holds exactly
// the metrics BENCHMARK.json declares, with their units, that each is
// printed by name, and that the traced run's self times account for its
// learn wall time.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, err := findWorkload(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(smallOptions(t, w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s: metric %s not printed", w.name, m.Name)
				}
			}
			if trace {
				if c := res.Metrics["obs.self_time_coverage"].Value; c < 0.99 || c > 1.01 {
					t.Errorf("%s: self times cover %.4f of the traced learn wall time, want 1", w.name, c)
				}
			}
		}
	}
}

// TestTamperedDefinitionFails checks that the correctness checks catch a
// wrong definition: one that covers other examples than the other
// schemas' (schema agreement on UW-CSE), and one that differs between the
// untraced and the traced run.
func TestTamperedDefinitionFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"castor-uwcse-schemas", false},
		{"castor-uwcse-schemas", true},
		{"alephprogol-hiv", true},
	} {
		o := smallOptions(t, tc.workload, tc.trace)
		o.tamper = true
		res, err := run(o, &bytes.Buffer{})
		if res == nil {
			t.Fatalf("%s trace=%v: no result: %v", tc.workload, tc.trace, err)
		}
		if res.Correct || res.Failed == 0 || err == nil {
			t.Errorf("%s trace=%v: tampered definition passed: correct=%v failed=%d err=%v",
				tc.workload, tc.trace, res.Correct, res.Failed, err)
		}
	}
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	o := smallOptions(t, "alephprogol-hiv", false)
	o.par = runtime.NumCPU() + 1
	if res, err := run(o, &bytes.Buffer{}); err == nil || res != nil {
		t.Fatalf("--par above NumCPU ran: res=%v err=%v", res, err)
	}
}

// TestSerialWorkloadRunsOnOneCore checks that a serial workload learns
// with one coverage worker on one scheduler core, records that in its env
// line, and gives the caller's GOMAXPROCS back.
func TestSerialWorkloadRunsOnOneCore(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	var out bytes.Buffer
	if _, err := run(smallOptions(t, "alephprogol-hiv", false), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"gomaxprocs":1,"par":1,`) {
		t.Errorf("env line does not record one core:\n%s", out.String())
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Errorf("GOMAXPROCS %d after the run, %d before", after, before)
	}
}

// TestSelfTimes checks the accounting on a hand-built trace: a root with
// one child span and one pooled round of two overlapping shards.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	spans := []spanRec{
		{ID: 2, Parent: 1, Name: "bottom_clause", Start: at(10), Dur: 20},
		{ID: 3, Parent: 1, Name: "shard_coverage_testing", Start: at(40), Dur: 40, Round: 7, Worker: 0},
		{ID: 4, Parent: 1, Name: "shard_coverage_testing", Start: at(45), Dur: 45, Round: 7, Worker: 1},
		{ID: 1, Name: "coverage_batch", Start: at(0), Dur: 100, Worker: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bottom_clause":          20,
		"shard_coverage_testing": 50, // the round's envelope, 40..90
		"coverage_batch":         30,
	}
	var sum time.Duration
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
		sum += self[k]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}
