package castor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestIntrospectionServerDuringLearn polls /progress while a Castor Learn
// call runs, exercising the live span stack and counter deltas under
// concurrency (meaningful under -race), then checks the post-run /metrics
// exposition carries every counter.
func TestIntrospectionServerDuringLearn(t *testing.T) {
	reg := obs.NewRegistry()
	prog := obs.NewProgress(reg)
	fr := obs.NewFlightRecorder(2048)
	srv := httptest.NewServer(obs.NewHandler(reg, prog, fr, nil, nil))
	defer srv.Close()

	run := obs.NewRun(nil, reg).WithSpans(obs.MultiSpanSink(fr, prog))
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Obs = run

	done := make(chan error, 1)
	go func() {
		_, err := New().Learn(prob, params)
		done <- err
	}()

	// Poll /progress until the run finishes; every response must be valid
	// JSON with consistent span bookkeeping.
	polls := 0
	for learning := true; learning; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			learning = false
		default:
			resp, err := http.Get(srv.URL + "/progress")
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatalf("mid-run /progress is not valid JSON: %v", err)
			}
			resp.Body.Close()
			// Dump the flight recorder while spans are still being recorded
			// into it — the seqlock ring must stay consistent (and clean
			// under -race).
			fresp, err := http.Get(srv.URL + "/debug/flightrecorder")
			if err != nil {
				t.Fatal(err)
			}
			fbody, _ := io.ReadAll(fresp.Body)
			fresp.Body.Close()
			for _, line := range strings.Split(strings.TrimSpace(string(fbody)), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("mid-run flight dump line is not JSON: %q", line)
				}
			}
			if snap.SpansStarted < snap.SpansCompleted {
				t.Fatalf("started %d < completed %d", snap.SpansStarted, snap.SpansCompleted)
			}
			if int64(len(snap.ActiveSpans)) != snap.SpansStarted-snap.SpansCompleted {
				t.Fatalf("active %d != started %d - completed %d",
					len(snap.ActiveSpans), snap.SpansStarted, snap.SpansCompleted)
			}
			polls++
		}
	}
	if polls == 0 {
		t.Log("run finished before any poll; span checks below still apply")
	}

	// After the run: no span may remain open, and some must have run.
	snap := prog.Snapshot()
	if len(snap.ActiveSpans) != 0 {
		t.Errorf("spans still open after Learn: %+v", snap.ActiveSpans)
	}
	if snap.SpansCompleted == 0 {
		t.Error("no spans completed over a full Castor run")
	}

	// /metrics renders every counter of the registry in exposition format.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"coverage_tests", "bottom_clauses", "tuples_scanned"} {
		if !strings.Contains(string(body), fmt.Sprintf("sirl_%s ", name)) {
			t.Errorf("/metrics missing sirl_%s", name)
		}
	}
	if !strings.Contains(string(body), `sirl_span_calls{span="learn"} 1`) {
		t.Errorf("/metrics missing the learn span aggregate:\n%s", body)
	}
}

// TestConcurrentLearnsDoNotCrossContaminate runs two Learn calls with two
// distinct *obs.Run/registry/server stacks concurrently in one process —
// each with its own flight recorder, stall watchdog and resource sampler
// running — and polls /progress, /metrics and /debug/flightrecorder while
// they race (meaningful under -race): each server must only ever see its
// own run's spans and counters, and the learned definitions must match a
// sequential baseline.
func TestConcurrentLearnsDoNotCrossContaminate(t *testing.T) {
	type stack struct {
		reg   *obs.Registry
		prog  *obs.Progress
		fr    *obs.FlightRecorder
		graph *obs.GraphSink
		srv   *httptest.Server
	}
	mk := func() *stack {
		reg := obs.NewRegistry()
		prog := obs.NewProgress(reg)
		fr := obs.NewFlightRecorder(1024)
		graph := obs.NewGraphSink(0)
		return &stack{reg: reg, prog: prog, fr: fr, graph: graph,
			srv: httptest.NewServer(obs.NewHandler(reg, prog, fr, nil, graph))}
	}
	a, b := mk(), mk()
	defer a.srv.Close()
	defer b.srv.Close()

	learn := func(s *stack, worldSize int) (string, error) {
		w := testfix.NewWorld(worldSize)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		params.Obs = obs.NewRun(nil, s.reg).WithSpans(obs.MultiSpanSink(s.fr, s.prog, s.graph))
		// A tight stall interval so the watchdog goroutine actively ticks
		// (and may trip) during the learn; trips must not perturb learning.
		wd := obs.StartWatchdog(params.Obs, s.fr, 25*time.Millisecond, nil)
		defer wd.Stop()
		tl := obs.StartTimeline(s.reg, s.fr, 5*time.Millisecond)
		defer tl.Stop()
		def, err := New().Learn(prob, params)
		if err != nil {
			return "", err
		}
		return def.String(), nil
	}

	// Sequential baselines first, on fresh stacks.
	base8, err := learn(mk(), 8)
	if err != nil {
		t.Fatal(err)
	}
	base6, err := learn(mk(), 6)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		def string
		err error
	}
	da := make(chan result, 1)
	db := make(chan result, 1)
	go func() { d, err := learn(a, 8); da <- result{d, err} }()
	go func() { d, err := learn(b, 6); db <- result{d, err} }()

	// Poll both servers while the runs race.
	poll := func(s *stack) {
		resp, err := http.Get(s.srv.URL + "/progress")
		if err != nil {
			t.Error(err)
			return
		}
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Errorf("mid-run /progress is not valid JSON: %v", err)
		}
		resp.Body.Close()
		if snap.SpansStarted < snap.SpansCompleted {
			t.Errorf("started %d < completed %d", snap.SpansStarted, snap.SpansCompleted)
		}
		mresp, err := http.Get(s.srv.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, mresp.Body)
		mresp.Body.Close()
		fresp, err := http.Get(s.srv.URL + "/debug/flightrecorder")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, fresp.Body)
		fresp.Body.Close()
		// /critpath over a partial graph must stay valid JSON mid-run.
		cresp, err := http.Get(s.srv.URL + "/critpath?k=3")
		if err != nil {
			t.Error(err)
			return
		}
		var cp obs.CritPathResponse
		if err := json.NewDecoder(cresp.Body).Decode(&cp); err != nil {
			t.Errorf("mid-run /critpath is not valid JSON: %v", err)
		}
		cresp.Body.Close()
	}
	var ra, rb *result
	for ra == nil || rb == nil {
		select {
		case r := <-da:
			ra = &r
		case r := <-db:
			rb = &r
		default:
			poll(a)
			poll(b)
		}
	}
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if ra.def != base8 {
		t.Errorf("concurrent run A learned a different definition:\nbase: %s\ngot:  %s", base8, ra.def)
	}
	if rb.def != base6 {
		t.Errorf("concurrent run B learned a different definition:\nbase: %s\ngot:  %s", base6, rb.def)
	}

	// Each run's spans balance within its own stack — a cross-posted span
	// would leave one side unbalanced.
	for name, s := range map[string]*stack{"A": a, "B": b} {
		snap := s.prog.Snapshot()
		if len(snap.ActiveSpans) != 0 {
			t.Errorf("run %s: spans still open: %+v", name, snap.ActiveSpans)
		}
		if snap.SpansStarted != snap.SpansCompleted {
			t.Errorf("run %s: started %d != completed %d", name, snap.SpansStarted, snap.SpansCompleted)
		}
		// Exactly one learn span each: the other run's spans never leaked in.
		resp, err := http.Get(s.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `sirl_span_calls{span="learn"} 1`) {
			t.Errorf("run %s: /metrics does not show exactly one learn span:\n%s", name, body)
		}
	}

	// Span graphs must be disjoint: process-unique span and round IDs mean
	// no ID appears in both graphs, every span's parent resolves within its
	// own graph, and each graph holds exactly one learn root.
	recsA, recsB := a.graph.Records(), b.graph.Records()
	idsA := map[uint64]bool{}
	roundsA := map[uint64]bool{}
	for _, r := range recsA {
		idsA[r.ID] = true
		if r.Round != 0 {
			roundsA[r.Round] = true
		}
	}
	for _, r := range recsB {
		if idsA[r.ID] {
			t.Errorf("span ID %d appears in both runs' graphs", r.ID)
		}
		if r.Round != 0 && roundsA[r.Round] {
			t.Errorf("round ID %d appears in both runs' graphs", r.Round)
		}
	}
	for name, recs := range map[string][]obs.SpanRecord{"A": recsA, "B": recsB} {
		g := obs.BuildGraph(recs)
		var learnRoots int
		for _, root := range g.Roots {
			if root.Name == "learn" {
				learnRoots++
			} else if root.ParentID != 0 {
				t.Errorf("run %s: span %d (%s) has parent %d outside its own graph",
					name, root.ID, root.Name, root.ParentID)
			}
		}
		if learnRoots != 1 {
			t.Errorf("run %s: %d learn roots, want exactly 1", name, learnRoots)
		}
	}
}
