package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReportCarriesEnv: an experiments run writes a report with the same
// session as castor — env block included — and prints the summary table
// only under -trace.
func TestReportCarriesEnv(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	o := options{exp: "table2", scale: 0.05, par: 1, Config: obs.Config{Seed: 1, ReportPath: path}}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "run metrics:") {
		t.Error("summary table printed without -trace")
	}
	rep, err := obs.LoadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "experiments" || rep.Dataset != "table2" {
		t.Errorf("report tool/dataset = %q/%q, want experiments/table2", rep.Tool, rep.Dataset)
	}
	if rep.Env == nil || rep.Env.GoVersion == "" {
		t.Fatalf("report env = %+v, want go_version set", rep.Env)
	}
	if rep.Env.Seed != 1 {
		t.Errorf("report env seed = %d, want 1", rep.Env.Seed)
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := run(options{exp: "table99"}, &bytes.Buffer{})
	if _, ok := err.(unknownExperiment); !ok {
		t.Fatalf("run(-exp table99) = %v, want an unknownExperiment error", err)
	}
}
