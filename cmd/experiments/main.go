// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # everything, laptop scale
//	experiments -exp table10 -folds 5    # one experiment
//	experiments -exp table9 -scale 0.5   # smaller/faster
//
//	# observability: aggregate counters/timers across every learner run
//	experiments -exp table10 -trace trace.jsonl -report run.json
//	experiments -exp table10 -trace trace.json   # Chrome trace (Perfetto)
//	experiments -exp all -http :6060     # live /metrics /progress /debug/pprof/
//	experiments -exp fig2 -cpuprofile cpu.pprof
//
// Experiments: table2, table9, table10, table11, table12, table13, fig2,
// fig3, ablations, all. One observability session — one registry, flight
// ring and trace stream — spans all selected experiments (see README
// "Observability").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// options mirrors the command-line flags; the observability and profiling
// flags map one to one onto obs.Config.
type options struct {
	exp      string
	scale    float64
	folds    int
	par      int
	fig3Defs int

	obs.Config
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment id: table2|table9|table10|table11|table12|table13|fig2|fig3|ablations|all")
	flag.Float64Var(&o.scale, "scale", 1.0, "dataset scale factor")
	flag.IntVar(&o.folds, "folds", 0, "cross-validation folds (0 = per-table default)")
	flag.IntVar(&o.par, "par", 4, "coverage-test parallelism")
	flag.Int64Var(&o.Seed, "seed", 1, "random seed")
	flag.IntVar(&o.fig3Defs, "fig3-defs", 10, "random definitions per Figure 3 setting")
	flag.StringVar(&o.TracePath, "trace", "", "write a span trace to this file: Chrome trace-event (Perfetto) JSON if the path ends in .json, JSONL otherwise")
	flag.StringVar(&o.ReportPath, "report", "", "write the JSON run report (for cmd/obsreport) to this file")
	flag.StringVar(&o.HTTPAddr, "http", "", "serve /metrics, /progress, /debug/flightrecorder and /debug/pprof/ on this address (e.g. :6060)")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file")
	flag.StringVar(&o.FlightPath, "flightrecorder", "", "write flight-recorder dumps (JSONL) to this file (default: stderr on dump)")
	flag.DurationVar(&o.WatchdogStall, "watchdog-stall", 0, "trip the stall watchdog after this long without heartbeat progress (0 = off)")
	flag.StringVar(&o.TimelinePath, "timeline", "", "write the metric timeline (JSONL) to this file at run end")
	flag.DurationVar(&o.TimelineTick, "timeline-tick", obs.DefaultTimelineTick, "sampling interval of the metric timeline and resource gauges (on with -timeline, -http, -report or -flightrecorder)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		var unknown unknownExperiment
		if errors.As(err, &unknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// order lists the experiments -exp all runs.
var order = []string{"table2", "table9", "table10", "table11", "table12", "table13", "fig2", "fig3", "ablations"}

// unknownExperiment is the error for an -exp id that names no experiment.
type unknownExperiment string

func (u unknownExperiment) Error() string {
	return fmt.Sprintf("unknown experiment %q; have %v", string(u), order)
}

// run runs the selected experiments under one observability session.
func run(o options, out io.Writer) error {
	sess, err := obs.Open(o.Config, out)
	if err != nil {
		return err
	}
	defer sess.DumpOnPanic()
	start := time.Now()
	err = runExperiments(o, sess.Run(), out)
	var rr *obs.RunReport
	if err == nil {
		rr = &obs.RunReport{
			Tool:    "experiments",
			Dataset: o.exp,
			Params: map[string]any{
				"scale": o.scale,
				"folds": o.folds,
				"par":   o.par,
				"seed":  o.Seed,
			},
			ElapsedSeconds: time.Since(start).Seconds(),
		}
	}
	if cerr := sess.Close(rr); err == nil {
		err = cerr
	}
	return err
}

// runExperiments runs each experiment named by -exp in turn.
func runExperiments(o options, obsRun *obs.Run, out io.Writer) error {
	cfg := experiments.Config{
		Scale:       o.scale,
		Folds:       o.folds,
		Parallelism: o.par,
		Seed:        o.Seed,
		Out:         out,
		Obs:         obsRun,
	}
	ids := order
	if o.exp != "all" {
		ids = strings.Split(o.exp, ",")
	}
	for _, id := range ids {
		var err error
		switch id = strings.TrimSpace(id); id {
		case "table2":
			_, err = experiments.Table2(cfg)
		case "table9":
			_, err = experiments.Table9(cfg)
		case "table10":
			_, err = experiments.Table10(cfg)
		case "table11":
			_, err = experiments.Table11(cfg)
		case "table12":
			_, err = experiments.Table12(cfg)
		case "table13":
			_, err = experiments.Table13(cfg)
		case "fig2":
			_, err = experiments.Figure2(cfg, nil)
		case "fig3":
			_, err = experiments.Figure3(cfg, o.fig3Defs, nil)
		case "ablations":
			_, err = experiments.Ablations(cfg)
		default:
			return unknownExperiment(id)
		}
		if err != nil {
			return fmt.Errorf("experiment %s failed: %w", id, err)
		}
	}
	return nil
}
