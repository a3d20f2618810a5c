package main

import (
	"runtime"
	"time"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// replayStats is the probe replay's cost per call, measured outside the
// learner through public functions only: the learned clauses are probed
// against every training example, once by θ-subsumption against the
// example's compiled ground bottom clause and once by direct evaluation
// on the instance.
type replayStats struct {
	compileNs, compileAllocs float64 // per subsume.Compile of an example target
	probeNs, probeAllocs     float64 // per Compiled.Subsumes
	coversNs, coversAllocs   float64 // per Instance.CoversExample
}

// replay probes every clause of defs[k] against every example of
// probs[k]. Ground bottom clauses are built first and untimed: they are
// the saturation layer, not the probe.
func replay(w *workload, probs []*ilp.Problem, defs []*logic.Definition, p ilp.Params) replayStats {
	var compiles, probes, covers int
	var compileNs, probeNs, coversNs time.Duration
	var compileAllocs, probeAllocs, coversAllocs uint64
	var hits int
	for k, prob := range probs {
		if defs[k] == nil {
			continue
		}
		clauses := defs[k].Clauses
		exs := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
		sat := w.saturator(prob, p)
		bcs := make([]*logic.Clause, len(exs))
		for i, e := range exs {
			bcs[i] = sat(e)
		}
		targets := make([]*subsume.Compiled, len(exs))
		d, a := timed(func() {
			for i, bc := range bcs {
				targets[i] = subsume.Compile(bc)
			}
		})
		compiles += len(exs)
		compileNs += d
		compileAllocs += a
		d, a = timed(func() {
			for _, c := range clauses {
				for _, cd := range targets {
					if cd.Subsumes(c) {
						hits++
					}
				}
			}
		})
		probes += len(clauses) * len(exs)
		probeNs += d
		probeAllocs += a
		d, a = timed(func() {
			for _, c := range clauses {
				for _, e := range exs {
					if prob.Instance.CoversExample(c, e) {
						hits++
					}
				}
			}
		})
		covers += len(clauses) * len(exs)
		coversNs += d
		coversAllocs += a
	}
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	replaySink = hits
	return replayStats{
		compileNs:     per(float64(compileNs), compiles),
		compileAllocs: per(float64(compileAllocs), compiles),
		probeNs:       per(float64(probeNs), probes),
		probeAllocs:   per(float64(probeAllocs), probes),
		coversNs:      per(float64(coversNs), covers),
		coversAllocs:  per(float64(coversAllocs), covers),
	}
}

// timed runs f once and returns its wall time and heap allocation count.
func timed(f func()) (time.Duration, uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return d, ms1.Mallocs - ms0.Mallocs
}

// replaySink keeps the replay's probe results live, so no probe can be
// optimized away.
var replaySink int
