package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// readFlightDump decodes a flight-recorder dump: the flight_meta line
// first, then one record per line.
func readFlightDump(t *testing.T, path string) []obs.FlightRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []obs.FlightRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r obs.FlightRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("flight dump line %q does not parse: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Kind != "flight_meta" {
		t.Fatalf("flight dump does not start with flight_meta: %+v", recs)
	}
	return recs
}

func hasMark(recs []obs.FlightRecord, name string) bool {
	for _, r := range recs {
		if r.Kind == "mark" && r.Name == name {
			return true
		}
	}
	return false
}

// panicLearner stands in for any learner that crashes mid-learn.
type panicLearner struct{}

func (panicLearner) Name() string { return "panic" }

func (panicLearner) Learn(_ *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	params.Obs.StartSpan("learn")
	panic("learner bug")
}

// TestPanicInLearnDumpsFlightRing: a panic inside any learner leaves a
// flight dump with a dump:panic mark behind, and still propagates.
func TestPanicInLearnDumpsFlightRing(t *testing.T) {
	learners["panic"] = func() ilp.Learner { return panicLearner{} }
	defer delete(learners, "panic")
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	o := options{
		dataset: "uwcse", learner: "panic", coverage: "auto",
		Config: obs.Config{Seed: 1, FlightPath: path},
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		run(o, io.Discard) //nolint:errcheck // must panic
	}()
	if recovered != "learner bug" {
		t.Fatalf("recovered %v, want the learner's panic to propagate", recovered)
	}
	recs := readFlightDump(t, path)
	if !hasMark(recs, "dump:panic") {
		t.Errorf("flight dump has no dump:panic mark: %+v", recs)
	}
}

// TestWatchdogTripDumpsFlightRing forces a watchdog trip: a tiny learn
// under a session with a stall watchdog, then idle until it trips. The
// flight dump, the report and its flattened metrics must show the trip
// and the runtime-health data around it.
func TestWatchdogTripDumpsFlightRing(t *testing.T) {
	dir := t.TempDir()
	const stall = 250 * time.Millisecond
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10,
		Config: obs.Config{
			Seed: 1, WatchdogStall: stall, TimelineTick: 50 * time.Millisecond,
			FlightPath: filepath.Join(dir, "flight-watchdog.jsonl"),
			ReportPath: filepath.Join(dir, "run-wd.json"),
		},
	}
	sess, err := obs.Open(o.Config, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := learn(&o, sess.Run(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The run is idle now, so the heartbeat stops and the watchdog must
	// trip within about 1.25× the stall.
	reg := sess.Run().Registry()
	for deadline := time.Now().Add(10*stall + 5*time.Second); reg.Get(obs.CWatchdogStalls) == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if err := sess.Close(rr); err != nil {
		t.Fatal(err)
	}

	recs := readFlightDump(t, o.FlightPath)
	kinds := map[string]bool{}
	for _, r := range recs {
		kinds[r.Kind] = true
	}
	for _, k := range []string{"watchdog_stall", "sample"} {
		if !kinds[k] {
			t.Errorf("flight dump has no %s record (kinds %v)", k, kinds)
		}
	}
	if !hasMark(recs, "dump:watchdog") {
		t.Error("flight dump has no dump:watchdog mark")
	}

	b, err := os.ReadFile(o.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Metrics struct {
			Counters   map[string]int64                      `json:"counters"`
			Histograms map[string]map[string]json.RawMessage `json:"histograms"`
			Gauges     map[string]float64                    `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if n := raw.Metrics.Counters["watchdog_stalls"]; n < 1 {
		t.Errorf("watchdog_stalls = %d, want >= 1", n)
	}
	if len(raw.Metrics.Histograms) == 0 {
		t.Error("report has no histograms")
	}
	for name, h := range raw.Metrics.Histograms {
		if _, ok := h["p99_seconds"]; !ok {
			t.Errorf("histogram %s has no p99_seconds", name)
		}
	}
	if raw.Metrics.Gauges["rss_peak_bytes"] <= 0 {
		t.Error("report has no rss_peak_bytes")
	}

	rep, err := obs.LoadRunReport(o.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	flat := map[string]bool{}
	for _, d := range obs.DiffRunReports(rep, rep) {
		flat[d.Name] = d.InNew
	}
	for _, name := range []string{"coverage_tests", "hist_span_coverage_batch_p99", "hist_span_score_batch_p99", "rss_peak_bytes"} {
		if !flat[name] {
			t.Errorf("flattened report has no %s", name)
		}
	}
}
