package subsume

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/obs"
)

// The shared symbol space is a refinement, not a new semantics: a source
// prepared once and probed against targets compiled in the instance's
// space (or in private spaces) must give the pre-change one-shot matcher's
// answer, witness and node count on every pair.

// probeVocab is the generator's vocabulary. The space holds p, q, r, t
// and the constants a, b, as an instance's store would; s, c and d exist
// only in targets and sources, u and e only in sources. Predicate and
// constant names are disjoint (see TestAbsentPredicateFailsBeforeSearch
// for why that matters to node counts).
var (
	probePreds  = []string{"p", "q", "r", "s", "u"}
	probeConsts = []string{"a", "b", "c", "d", "e"}
	probeVars   = []string{"X", "Y", "Z", "W"}
)

// newProbeSpace is the instance-like shared space of the property tests.
func newProbeSpace() *logic.Symbols {
	space := logic.NewSymbols()
	for _, n := range []string{"p", "q", "r", "t", "a", "b"} {
		space.Intern(n)
	}
	return space
}

// probePair is one generated (source, target) pair.
type probePair struct {
	src, tgt    *logic.Clause
	init        logic.Substitution // applied by the headless variant only
	compileLate bool               // compile the target after preparing the source
}

func randProbeAtom(r *rand.Rand, preds, consts []string, varFrac int) logic.Atom {
	args := make([]logic.Term, 1+r.Intn(2))
	for i := range args {
		if r.Intn(10) < varFrac {
			args[i] = logic.Var(probeVars[r.Intn(len(probeVars))])
		} else {
			args[i] = logic.Const(consts[r.Intn(len(consts))])
		}
	}
	return logic.NewAtom(preds[r.Intn(len(preds))], args...)
}

func (probePair) Generate(r *rand.Rand, _ int) reflect.Value {
	// Targets are ground (a bottom clause) or, one time in three,
	// non-ground (skolemized); they never use the source-only names.
	tgtVarFrac := 0
	if r.Intn(3) == 0 {
		tgtVarFrac = 4
	}
	head := func(varFrac int) logic.Atom {
		a := randProbeAtom(r, []string{"t"}, probeConsts[:4], varFrac)
		return logic.NewAtom("t", append(a.Args, logic.Var("X"))[:2]...)
	}
	tgt := &logic.Clause{Head: head(tgtVarFrac)}
	for i := r.Intn(10); i > 0; i-- {
		tgt.Body = append(tgt.Body, randProbeAtom(r, probePreds[:4], probeConsts[:4], tgtVarFrac))
	}
	src := &logic.Clause{Head: head(8)}
	for i := r.Intn(5); i > 0; i-- {
		preds := probePreds[:4]
		if r.Intn(8) == 0 {
			preds = probePreds // now and then a predicate nothing holds
		}
		src.Body = append(src.Body, randProbeAtom(r, preds, probeConsts, 8))
	}
	var init logic.Substitution
	if r.Intn(2) == 0 {
		init = logic.NewSubstitution()
		init.Bind(probeVars[r.Intn(2)], logic.Const(probeConsts[r.Intn(len(probeConsts))]))
		if r.Intn(2) == 0 {
			init.Bind("Z", logic.Var("W"))
		}
	}
	return reflect.ValueOf(probePair{src: src, tgt: tgt, init: init, compileLate: r.Intn(2) == 0})
}

func (pp probePair) String() string {
	return fmt.Sprintf("src %v\ntgt %v\ninit %v late=%v", pp.src, pp.tgt, pp.init, pp.compileLate)
}

// probed is one probe's observable outcome.
type probed struct {
	ok      bool
	witness logic.Substitution
	nodes   int64
}

// probeOutcome runs one prepared-source probe, counting its nodes through
// a registry run, and takes the witness from a second probe of the same
// source.
func probeOutcome(cd *Compiled, src *Source) probed {
	reg := obs.NewRegistry()
	ok := cd.Probe(obs.NewRun(nil, reg), src)
	w, wok := cd.witness(src)
	if wok != ok {
		panic("witness and probe disagree")
	}
	return probed{ok: ok, witness: w, nodes: reg.Get(obs.CSubsumptionNodes)}
}

func (p probed) matches(ok bool, witness logic.Substitution, nodes int) bool {
	return p.ok == ok && p.nodes == int64(nodes) && reflect.DeepEqual(p.witness, witness)
}

// TestQuickPreparedProbeMatchesLegacy checks three probe shapes per pair
// against the pre-change matcher: a full clause prepared and compiled in
// the shared space (the coverage path, with the target compiled before
// or after the source is prepared), the same pair in private spaces (the
// one-shot wrappers), and the headless body probe under init.
func TestQuickPreparedProbeMatchesLegacy(t *testing.T) {
	f := func(pp probePair) bool {
		space := newProbeSpace()
		wantOK, wantW, wantN := legacyCompile(pp.tgt).probe(&pp.src.Head, pp.src.Body, nil)

		var cd *Compiled
		if !pp.compileLate {
			cd = CompileIn(space, pp.tgt)
		}
		src := Prepare(space, pp.src)
		if pp.compileLate {
			cd = CompileIn(space, pp.tgt)
		}
		if got := probeOutcome(cd, src); !got.matches(wantOK, wantW, wantN) {
			t.Logf("shared space: got %+v, want %v %v %d\n%v", got, wantOK, wantW, wantN, pp)
			return false
		}
		if got := probeOutcome(Compile(pp.tgt), Prepare(nil, pp.src)); !got.matches(wantOK, wantW, wantN) {
			t.Logf("private spaces: got %+v, want %v %v %d\n%v", got, wantOK, wantW, wantN, pp)
			return false
		}

		wantOK, wantW, wantN = legacyCompileBody(pp.tgt.Body).probe(nil, pp.src.Body, pp.init)
		got := probeOutcome(CompileBody(pp.tgt.Body), PrepareBody(nil, pp.src.Body, pp.init))
		if !got.matches(wantOK, wantW, wantN) {
			t.Logf("body under init: got %+v, want %v %v %d\n%v", got, wantOK, wantW, wantN, pp)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestPreparedProbeEdgeCases pins the cases the generator reaches only by
// chance: an empty source body, an empty target body, a source constant
// absent from both the target and the space, and a source predicate
// absent from the target but held by the space.
func TestPreparedProbeEdgeCases(t *testing.T) {
	cases := []struct{ src, tgt string }{
		{"t(X).", "t(a) :- p(a,b)."},
		{"t(X) :- p(X,Y).", "t(a)."},
		{"t(X) :- p(X,e).", "t(a) :- p(a,b)."},
		{"t(X) :- r(X).", "t(a) :- p(a,b)."},
		{"t(X) :- p(X,Y), s(Y).", "t(a) :- p(a,c), s(c)."},
		{"t(X) :- p(X,Y), q(Y).", "t(U) :- p(U,V), q(V)."},
	}
	for _, tc := range cases {
		src, tgt := cl(tc.src), cl(tc.tgt)
		wantOK, wantW, wantN := legacyCompile(tgt).probe(&src.Head, src.Body, nil)
		for _, space := range []*logic.Symbols{nil, newProbeSpace()} {
			if got := probeOutcome(CompileIn(space, tgt), Prepare(space, src)); !got.matches(wantOK, wantW, wantN) {
				t.Errorf("%s vs %s (space %v): got %+v, want %v %v %d", tc.src, tc.tgt, space != nil, got, wantOK, wantW, wantN)
			}
		}
	}
}

// TestBudgetExhaustedThenCleanProbe: a probe that runs out of budget
// leaves nothing behind in the pooled matcher; the next probe of the same
// source and target, under the full budget, reproduces the oracle.
func TestBudgetExhaustedThenCleanProbe(t *testing.T) {
	cBody, dBody := chainPair(10, 40)
	src := PrepareBody(nil, cBody, nil)
	cd := CompileBody(dBody)

	old := matchBudget
	matchBudget = 5
	wantOK, _, wantN := legacyCompileBody(dBody).probe(nil, cBody, nil)
	got := probeOutcome(cd, src)
	matchBudget = old
	if got.ok || wantOK || got.nodes != int64(wantN) || got.nodes != 5 {
		t.Fatalf("exhausted probe: got %+v, oracle %v/%d", got, wantOK, wantN)
	}

	wantOK, wantW, wantN := legacyCompileBody(dBody).probe(nil, cBody, nil)
	if got := probeOutcome(cd, src); !got.matches(wantOK, wantW, wantN) || !got.ok {
		t.Fatalf("clean probe after exhaustion: got %+v, want %v %v %d", got, wantOK, wantW, wantN)
	}
}

// TestAbsentPredicateFailsBeforeSearch documents the one place the node
// count may differ from the pre-change matcher: a source predicate with
// no target literal fails the probe before any search. The old matcher
// failed early only when the name was unknown to the target altogether;
// a name the target held as a constant let it search earlier components
// first. The answer and the (absent) witness are the same.
func TestAbsentPredicateFailsBeforeSearch(t *testing.T) {
	cBody := []logic.Atom{
		logic.NewAtom("p", logic.Var("X"), logic.Var("Y")),
		logic.NewAtom("q", logic.Var("Z")),
	}
	dBody := []logic.Atom{logic.GroundAtom("p", "a", "q")}
	oldOK, oldW, oldN := legacyCompileBody(dBody).probe(nil, cBody, nil)
	got := probeOutcome(CompileBody(dBody), PrepareBody(nil, cBody, nil))
	if got.ok || oldOK || got.witness != nil || oldW != nil {
		t.Fatalf("answers differ: got %+v, oracle %v %v", got, oldOK, oldW)
	}
	if got.nodes != 0 || oldN != 1 {
		t.Fatalf("nodes: got %d, oracle %d; want 0 and 1", got.nodes, oldN)
	}
}
