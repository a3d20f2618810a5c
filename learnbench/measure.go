package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// hostEnv is the host fingerprint every result records: a speed-up means
// nothing without the core count it was measured on.
type hostEnv struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Par        int    `json:"par"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func captureEnv(par int) hostEnv {
	return hostEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Par:        par,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

func (e hostEnv) JSON() string {
	b, _ := json.Marshal(e) // a struct of strings and ints always marshals
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setup is a workload's prepared input: the dataset and one frozen
// problem per learned schema.
type setup struct {
	ds    *datasets.Dataset
	probs []*ilp.Problem
	// seconds and generateSeconds are medians over the repetitions:
	// generate+problem+freeze, and generate alone.
	seconds, generateSeconds float64
	tuples                   int
}

// setUp prepares the workload at least n times, and more while the
// repetitions add up to under a second (up to maxSetups), so that a
// workload whose set-up takes milliseconds still reports a steady median.
// It keeps the last preparation. Each repetition starts from a collected
// heap, so one repetition's garbage does not tax the next.
func setUp(w *workload, shrink float64, n int) (*setup, error) {
	var totals, gens []float64
	var st *setup
	spent := 0.0
	for i := 0; i < n || (spent < 1 && i < maxSetups); i++ {
		st = nil
		runtime.GC()
		t0 := time.Now()
		ds, err := w.generate(shrink)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.name, err)
		}
		gen := time.Since(t0)
		st = &setup{ds: ds}
		for _, s := range w.schemas {
			p, err := ds.Problem(s)
			if err != nil {
				return nil, err
			}
			p.Instance.Freeze()
			st.probs = append(st.probs, p)
			st.tuples += p.Instance.NumTuples()
		}
		totals = append(totals, time.Since(t0).Seconds())
		spent += totals[i]
		gens = append(gens, gen.Seconds())
	}
	st.seconds, st.generateSeconds = median(totals), median(gens)
	return st, nil
}

// maxSetups caps the set-up repetitions of a fast workload.
const maxSetups = 30

// bench is one run of one workload.
type bench struct {
	w      *workload
	o      options
	st     *setup
	out    io.Writer
	params ilp.Params
	// order is the schema order of every pass: the schemas rotated by
	// the run's seed. Learns are independent, so every order must learn
	// the same definitions.
	order []int
}

// learnResult is one Learn call.
type learnResult struct {
	def  *logic.Definition
	err  error
	wall time.Duration
}

// iteration is one pass over the workload's schemas, one learn each.
type iteration struct {
	learns []learnResult
	// wall, cpu and allocBytes are summed over the pass's learns.
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
}

// iterate learns every schema once, in the run's schema order. obsFor
// supplies each learn's instrumentation (nil: untraced); a traced learn
// runs inside the benchmark's own span. Results are indexed by schema.
func (b *bench) iterate(obsFor func(k int) *obs.Run) iteration {
	it := iteration{learns: make([]learnResult, len(b.st.probs))}
	var ms0, ms1 runtime.MemStats
	for _, k := range b.order {
		prob := b.st.probs[k]
		p := b.params
		if obsFor != nil {
			p.Obs = obsFor(k)
		}
		l := b.w.learner()
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		sp := p.Obs.StartSpan(benchSpan, obs.F("schema", b.w.schemas[k]))
		def, err := learnSafe(l, prob, p)
		sp.End()
		wall := time.Since(t0)
		cpu1 := cpuTime()
		runtime.ReadMemStats(&ms1)
		it.learns[k] = learnResult{def: def, err: err, wall: wall}
		it.wall += wall
		it.cpu += cpu1 - cpu0
		it.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	return it
}

// learnSafe is Learner.Learn with a panic reported as an error, so one
// failing learn counts as failed instead of ending the run.
func learnSafe(l ilp.Learner, prob *ilp.Problem, p ilp.Params) (def *logic.Definition, err error) {
	defer func() {
		if r := recover(); r != nil {
			def, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	def, err = l.Learn(prob, p)
	if err == nil && def == nil {
		err = fmt.Errorf("learner returned no definition")
	}
	return def, err
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startLearnPhase returns the set-up's garbage to the OS and resets the
// kernel's peak-RSS mark, so peakRSSBytes later reports the learn phase
// alone rather than the generator's larger set-up peak.
func startLearnPhase() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSBytes reads VmHWM, the peak resident set since the last reset.
func peakRSSBytes() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSample reads the runtime's cumulative GC counters.
type gcSample struct {
	cycles       float64
	gcCPU, total float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{cycles: val(0), gcCPU: val(1), total: val(2)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
