// Command learnbench is the repository's end-to-end benchmark: one full
// Learn on a paper dataset is the unit of cost (the per-learner times of
// the paper's Tables 9–11), measured end to end with instrumentation off
// and split by layer from a separate traced run.
//
// Usage:
//
//	learnbench --workload castor-hiv --seed 1 --seconds 20 --trace 0
//
// It runs one learn at a time (a closed loop with one client) and prints
// one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
// README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// options are the command-line flags; run is driven by them so the
// self-test exercises the whole command without exec'ing it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	par      int
	// setups is the least number of set-ups behind the setup_s median.
	setups int
	// shrink scales every dataset down (1 = the workload's own scale);
	// the self-test runs at a fraction.
	shrink float64
	// traceDir receives the traced run's span file.
	traceDir string
	// tamper, set only by the self-test, empties the last definition a
	// run learns, so the test can see the correctness checks fire.
	tamper bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: castor-hiv|castor-uwcse-schemas|alephprogol-hiv")
	flag.Int64Var(&o.seed, "seed", 1, "run seed: rotates the order in which the workload's schemas are learned")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the untraced learn loop measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.par, "par", 0, "cores the learn runs on, as coverage-test parallelism and GOMAXPROCS (at most the host's CPU count; 0: the workload's own)")
	flag.Parse()
	o.setups, o.shrink, o.traceDir = 3, 1, ".bench_build/traces"
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "learnbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "learnbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "learnbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one benchmark run. It returns a nil result only when the
// run could not start (bad flags, refused host); once learning has begun
// every failure is counted in the result, and err says what failed.
func run(o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	par := o.par
	if par == 0 {
		par = w.cores(runtime.NumCPU())
	}
	// A speed-up measured above the host's core count is oversubscription.
	if par < 1 || par > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing --par %d: the host has %d CPUs", par, runtime.NumCPU())
	}
	// The Go scheduler gets the same cores as the coverage pool, so the
	// runtime's own work (GC, idle Ps) spreads over no core the learn
	// does not use.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
	env := captureEnv(par)
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	fmt.Fprintf(out, "env %s\n", env.JSON())
	fmt.Fprintf(out, "workload %s seed %d par %d trace %v\n", w.name, o.seed, par, o.trace)

	setups := o.setups
	if o.trace {
		setups = 1
	}
	st, err := setUp(w, o.shrink, setups)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, o: o, st: st, out: out, params: learnerParams(w, par)}
	for i := range w.schemas {
		b.order = append(b.order, int((uint64(o.seed)+uint64(i))%uint64(len(w.schemas))))
	}
	if o.trace {
		return b.traced(env)
	}
	return b.untraced()
}
