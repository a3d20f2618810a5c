package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// learnLoop learns the workload over and over, untraced. One warm-up
// pass comes first: it grows the heap and warms the caches, and it is
// checked but not timed. The timed passes then run for the run's
// --seconds: a new pass starts only if one more pass of the last pass's
// length still fits, and at least one timed pass always runs.
func (b *bench) learnLoop() (warm iteration, timed []iteration) {
	warm = b.iterate(nil)
	start := time.Now()
	for {
		it := b.iterate(nil)
		timed = append(timed, it)
		if time.Since(start)+it.wall > time.Duration(b.o.seconds*float64(time.Second)) {
			return warm, timed
		}
	}
}

// tamper stands in for a broken learner in the self-test: it empties the
// definition of the last learn of the pass.
func (b *bench) tamper(it *iteration) {
	if b.o.tamper {
		it.learns[len(it.learns)-1].def = &logic.Definition{}
	}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	if err := startLearnPhase(); err != nil {
		return nil, err
	}
	warm, its := b.learnLoop()
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	b.tamper(&its[len(its)-1])
	var v verdict
	all := append([]iteration{warm}, its...)
	b.checkRuns(all, &v)
	f1, agree := b.quality(all, &v)

	var learn, cpu, alloc []float64
	for _, it := range its {
		learn = append(learn, it.wall.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
		alloc = append(alloc, float64(it.allocBytes)/1e6)
	}
	res := &result{Attempted: v.attempted, Failed: len(v.failed), Metrics: map[string]metric{
		"learn_s":      {median(learn), "s"},
		"cpu_s":        {median(cpu), "s"},
		"setup_s":      {b.st.seconds, "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"peak_rss_mb":  {rss / 1e6, "MB"},
		"f1":           {f1, "ratio"},
		"schema_agree": {agree, "ratio"},
	}}
	res.Correct = res.Failed == 0
	fmt.Fprintf(b.out, "passes %d timed + 1 warm-up (learns per pass %d), warm-up learn_s %.3f\n", len(its), len(b.w.schemas), warm.wall.Seconds())
	fmt.Fprintf(b.out, "learn_s per timed pass %.3f\ncpu_s per timed pass %.3f\n", learn, cpu)
	b.printMetrics(res)
	return res, v.err()
}

// traced measures the per-layer metrics: one untraced pass (the baseline
// for the tracing overhead and the runtime's GC figures), then one pass
// traced through the public Params.Obs hook with the benchmark's own span
// recorder, then the probe replay.
func (b *bench) traced(env hostEnv) (*result, error) {
	if err := startLearnPhase(); err != nil {
		return nil, err
	}
	gc0 := readGC()
	plain := b.iterate(nil)
	gc1 := readGC()

	rec := &recorder{}
	regs := make([]*obs.Registry, len(b.st.probs))
	traced := b.iterate(func(k int) *obs.Run {
		regs[k] = obs.NewRegistry()
		return obs.NewRun(nil, regs[k]).WithSpans(rec)
	})
	b.tamper(&traced)

	var v verdict
	its := []iteration{plain, traced}
	b.checkRuns(its, &v)
	b.quality(its, &v)

	defs := make([]*logic.Definition, len(plain.learns))
	for k, lr := range plain.learns {
		defs[k] = lr.def
	}
	rp := replay(b.w, b.st.probs, defs, b.params)

	m := b.layerMetrics(rec.spans, regs, traced.wall)
	set := func(name, unit string, val float64) { m[name] = metric{val, unit} }
	set("setup.generate_s", "s", b.st.generateSeconds)
	set("setup.tuples", "count", float64(b.st.tuples))
	set("subsume.compile_ns", "ns", rp.compileNs)
	set("subsume.compile_allocs", "count", rp.compileAllocs)
	set("subsume.probe_ns", "ns", rp.probeNs)
	set("subsume.probe_allocs", "count", rp.probeAllocs)
	set("relstore.covers_ns", "ns", rp.coversNs)
	set("relstore.covers_allocs", "count", rp.coversAllocs)
	set("runtime.gc_cycles", "count", gc1.cycles-gc0.cycles)
	set("runtime.gc_cpu_frac", "ratio", ratio(gc1.gcCPU-gc0.gcCPU, gc1.total-gc0.total))
	set("obs.trace_overhead_frac", "ratio", traced.wall.Seconds()/plain.wall.Seconds()-1)
	set("obs.traced_learn_s", "s", traced.wall.Seconds())

	path := filepath.Join(b.o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.o.seed))
	if err := rec.writeJSONL(path, env); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans %d written to %s\n", len(rec.spans), path)

	res := &result{Attempted: v.attempted, Failed: len(v.failed), Metrics: m}
	res.Correct = res.Failed == 0
	b.printMetrics(res)
	return res, v.err()
}

// layerMetrics turns the traced pass's spans and counters into the
// per-layer metrics.
func (b *bench) layerMetrics(spans []spanRec, regs []*obs.Registry, wall time.Duration) map[string]metric {
	subsumption := b.w.mode == ilp.CoverageSubsumption
	m := make(map[string]metric)
	for _, name := range layerSelfMetrics {
		m[name] = metric{0, "s"}
	}
	self := selfTimes(spans)
	var selfSum time.Duration
	for kind, d := range self {
		name := layerOf(kind, subsumption)
		m[name] = metric{m[name].Value + d.Seconds(), "s"}
		selfSum += d
	}
	dur, calls := spanTotals(spans)
	set := func(name, unit string, val float64) { m[name] = metric{val, unit} }
	set("castor.negative_reduction.cum_s", "s", dur["negative_reduction"].Seconds())
	set("coverage.batches", "count", float64(calls["coverage_batch"]+calls["score_batch"]))
	set("obs.self_time_coverage", "ratio", ratio(selfSum.Seconds(), wall.Seconds()))

	sum := func(get func(*obs.Registry) float64) float64 {
		t := 0.0
		for _, reg := range regs {
			t += get(reg)
		}
		return t
	}
	count := func(c obs.Counter) float64 {
		return sum(func(reg *obs.Registry) float64 { return float64(reg.Get(c)) })
	}
	busy := sum(func(reg *obs.Registry) float64 { return reg.Gauge(obs.GPoolBusySeconds) })
	idle := sum(func(reg *obs.Registry) float64 { return reg.Gauge(obs.GPoolIdleSeconds) })
	probes, nodes := count(obs.CSubsumptionCalls), count(obs.CSubsumptionNodes)
	tests, skipped := count(obs.CCoverageTests), count(obs.CCoverageSkipped)
	hits, misses := count(obs.CCoverageCacheHits), count(obs.CCoverageCacheMisses)
	set("relstore.tuples_scanned", "count", count(obs.CTuplesScanned))
	set("subsume.probes", "count", probes)
	set("subsume.nodes", "count", nodes)
	set("subsume.nodes_per_probe", "ratio", ratio(nodes, probes))
	set("subsume.budget_exhausted", "count", count(obs.CSubsumptionBudgetExhausted))
	set("coverage.tests", "count", tests)
	set("coverage.skip_frac", "ratio", ratio(skipped, tests+skipped))
	set("coverage.cache_hit_frac", "ratio", ratio(hits, hits+misses))
	set("coverage.pool_busy_ratio", "ratio", ratio(busy, busy+idle))
	set("coverage.pool_idle_s", "s", idle)
	set("coverage.prune_wasted_pairs", "count", count(obs.CPruneWastedPairs))
	set("castor.bottom_literals", "count", count(obs.CBottomLiterals))
	set("ilp.saturations", "count", count(obs.CSaturationMisses))
	set("castor.candidates_scored", "count", count(obs.CCandidatesScored))
	set("castor.candidates_pruned", "count", count(obs.CCandidatesPruned))
	return m
}

// layerSelfMetrics are the self-time metrics, reported even when a
// workload never enters the layer.
var layerSelfMetrics = []string{
	"relstore.probe.self_s", "subsume.probe.self_s", "subsume.minimize.self_s",
	"coverage.batch.self_s", "castor.bottom_clause.self_s", "castor.beam_round.self_s",
	"castor.negative_reduction.self_s", "ilp.covering.self_s", "other.self_s",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics prints every metric by name with its unit.
func (b *bench) printMetrics(res *result) {
	for _, name := range sortedKeys(res.Metrics) {
		mt := res.Metrics[name]
		fmt.Fprintf(b.out, "metric %-34s %16.6g %s\n", name, mt.Value, mt.Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
