package ilp_test

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestTesterEdgeCases drives CoveredSet/Count/PosNeg through the shapes
// that used to crash or could silently diverge: empty example slices,
// known-covered sets shorter or longer than the examples (the seed
// implementation indexed known[i] and panicked in a worker goroutine on a
// short set), and sequential/parallel consistency with and without knowns.
func TestTesterEdgeCases(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	clause := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	none := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), courseLevel(Z,900).")

	mkKnown := func(n, stride int) *coverage.Bitset {
		b := coverage.New(n)
		for i := 0; i < n; i += stride {
			b.Set(i)
		}
		return b
	}

	cases := []struct {
		name     string
		clause   *logic.Clause
		examples []logic.Atom
		known    *coverage.Bitset
	}{
		{"empty examples", clause, nil, nil},
		{"empty examples with known", clause, nil, mkKnown(7, 2)},
		{"nil known", clause, prob.Pos, nil},
		{"known matches", clause, prob.Pos, mkKnown(len(prob.Pos), 2)},
		{"known shorter", clause, prob.Pos, mkKnown(len(prob.Pos)/2, 2)},
		{"known longer", clause, prob.Pos, mkKnown(len(prob.Pos)*2, 2)},
		{"known all set, covering nothing", none, prob.Pos, mkKnown(len(prob.Pos), 1)},
		{"single example", clause, prob.Pos[:1], mkKnown(1, 1)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				params := ilp.Defaults()
				params.Parallelism = workers
				tester := ilp.NewTester(prob, params)
				got := tester.CoveredSet(tc.clause, tc.examples, tc.known)
				if got.Len() != len(tc.examples) {
					t.Fatalf("result length %d, want %d", got.Len(), len(tc.examples))
				}
				// Every known bit inside range must be reported covered.
				for i := range tc.examples {
					if tc.known.Get(i) && !got.Get(i) {
						t.Errorf("known example %d reported uncovered", i)
					}
				}
				if c := tester.Count(tc.clause, tc.examples, tc.known); c != got.Count() {
					t.Errorf("Count = %d, CoveredSet.Count = %d", c, got.Count())
				}
			})
		}
	}
}

// TestTesterCountPosNegConsistency cross-checks Count and PosNeg between
// sequential and parallel testers, with the memo cache on and off.
func TestTesterCountPosNegConsistency(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X), professor(Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), courseLevel(Z,900)."),
	}
	type result struct{ p, n int }
	var want []result
	for cfg := 0; cfg < 4; cfg++ {
		params := ilp.Defaults()
		params.Parallelism = 1 + 7*(cfg%2)
		params.DisableCoverageCache = cfg >= 2
		tester := ilp.NewTester(prob, params)
		var got []result
		for _, c := range clauses {
			p, n := tester.PosNeg(c, prob.Pos, prob.Neg, nil, nil)
			if p != tester.Count(c, prob.Pos, nil) || n != tester.Count(c, prob.Neg, nil) {
				t.Fatalf("cfg %d: PosNeg and Count disagree on %v", cfg, c)
			}
			got = append(got, result{p, n})
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("cfg %d (parallel=%d cache=%v): clause %d = %+v, want %+v",
					cfg, params.Parallelism, !params.DisableCoverageCache, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBatchEmpty covers the zero-candidate and zero-example corners
// of the batched scorer.
func TestScoreBatchEmpty(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	if got := tester.ScoreBatch(nil, prob.Pos, prob.Neg, coverage.NoBound, 0); len(got) != 0 {
		t.Fatalf("empty batch returned %d scores", len(got))
	}
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	scores := tester.ScoreBatch([]coverage.Candidate{{Clause: c}}, nil, nil, coverage.NoBound, 0)
	if len(scores) != 1 || scores[0].P != 0 || scores[0].N != 0 || scores[0].Pruned {
		t.Fatalf("empty example sets: %+v", scores[0])
	}
}

// TestSaturationLookupZeroAlloc pins the compiled-target lookup of every
// subsumption probe at zero allocations once the example is compiled, on
// unobserved and registry runs; an equal example built from fresh strings
// finds the same compilation.
func TestSaturationLookupZeroAlloc(t *testing.T) {
	prob := testfix.NewWorld(6).ProblemOriginal()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	for _, run := range []*obs.Run{nil, obs.NewRun(nil, obs.NewRegistry())} {
		params.Obs = run
		tester := ilp.NewTester(prob, params)
		e := prob.Pos[0]
		cd := tester.SaturationOf(e)
		if allocs := testing.AllocsPerRun(100, func() { tester.SaturationOf(e) }); allocs != 0 {
			t.Errorf("registry run %v: %v allocs per saturation lookup, want 0", run != nil, allocs)
		}
		var names []string
		for _, a := range e.Args {
			names = append(names, string([]byte(a.Name)))
		}
		if same := logic.GroundAtom(string([]byte(e.Pred)), names...); tester.SaturationOf(same) != cd {
			t.Errorf("an equal example missed the compiled target")
		}
	}
}

// TestExampleCostZeroAlloc: the subsumption-mode cost model allocates
// nothing, both for a compiled example (its bottom-clause size) and for
// one not yet compiled (average tuples scanned per store lookup, summed
// over the tables without building StoreStats' map).
func TestExampleCostZeroAlloc(t *testing.T) {
	prob := testfix.NewWorld(6).ProblemOriginal()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	tester := ilp.NewTester(prob, params)
	compiled, fresh := prob.Pos[0], prob.Pos[1]
	cd := tester.SaturationOf(compiled) // saturating scans the store
	if got, want := tester.ExampleCost(compiled), int64(cd.Len())+1; got != want {
		t.Errorf("compiled example cost %d, want %d", got, want)
	}
	var scanned, lookups int64
	for _, st := range prob.Instance.StoreStats() {
		scanned += st.TuplesScanned
		lookups += st.Lookups
	}
	if lookups == 0 {
		t.Fatal("saturation left no store lookups")
	}
	if got, want := tester.ExampleCost(fresh), scanned/lookups+1; got != want {
		t.Errorf("uncompiled example cost %d, want %d", got, want)
	}
	for _, e := range []logic.Atom{compiled, fresh} {
		if allocs := testing.AllocsPerRun(100, func() { tester.ExampleCost(e) }); allocs != 0 {
			t.Errorf("ExampleCost(%v): %v allocs, want 0", e, allocs)
		}
	}
}

// TestSaturationHashCollision: when another example already owns an
// example's key hash, the example is compiled under its full key instead,
// the other example's entry is left alone, and coverage answers match a
// tester that never saw the collision.
func TestSaturationHashCollision(t *testing.T) {
	prob := testfix.NewWorld(6).ProblemOriginal()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	e, other := prob.Pos[0], prob.Pos[1]
	tester := ilp.NewTester(prob, params)
	untouched := tester.PlantImpostor(e, other)
	fresh := ilp.NewTester(prob, params)
	for _, ex := range []logic.Atom{e, e, prob.Neg[0]} {
		if got, want := tester.Covers(c, ex), fresh.Covers(c, ex); got != want {
			t.Errorf("Covers(%v) = %v, want %v", ex, got, want)
		}
	}
	if !untouched() {
		t.Errorf("the colliding example compiled into the other example's entry")
	}
	if tester.SaturationOf(e) != tester.SaturationOf(e) {
		t.Errorf("the colliding example was compiled twice")
	}
}
