package relstore

import (
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

func TestSatisfyBody(t *testing.T) {
	i := smallInstance(t)
	tests := []struct {
		body string
		want bool
	}{
		{"x :- student(X).", true},
		{"x :- student(X), inPhase(X, prelim).", true},
		{"x :- student(X), inPhase(X, quals).", false},
		{"x :- publication(P, X), publication(P, Y), professor(Y).", true}, // abe & pat share t1
		{"x :- publication(P, bea), publication(P, pat).", false},
		{"x :- ghost(X).", false},
	}
	for _, tt := range tests {
		c := logic.MustParseClause(tt.body)
		if got := i.SatisfyBody(c.Body, nil); got != tt.want {
			t.Errorf("SatisfyBody(%q) = %v want %v", tt.body, got, tt.want)
		}
	}
}

func TestSatisfyBodyWithInit(t *testing.T) {
	i := smallInstance(t)
	body := logic.MustParseClause("x :- inPhase(X, P).").Body
	init := logic.NewSubstitution().Bind("X", logic.Const("abe"))
	if !i.SatisfyBody(body, init) {
		t.Error("abe has a phase")
	}
	init2 := logic.NewSubstitution().Bind("X", logic.Const("ghost"))
	if i.SatisfyBody(body, init2) {
		t.Error("ghost has no phase")
	}
}

func TestSatisfyBodyRepeatedVariable(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	i := NewInstance(s)
	i.MustInsert("p", "x", "y")
	body := logic.MustParseClause("t :- p(A, A).").Body
	if i.SatisfyBody(body, nil) {
		t.Error("p(A,A) must not match p(x,y)")
	}
	i.MustInsert("p", "z", "z")
	if !i.SatisfyBody(body, nil) {
		t.Error("p(A,A) should match p(z,z)")
	}
}

func TestCoversExample(t *testing.T) {
	i := smallInstance(t)
	// collaborated via co-publication — the paper's Example 3.2.
	c := logic.MustParseClause("collaborated(X,Y) :- publication(P,X), publication(P,Y).")
	if !i.CoversExample(c, logic.GroundAtom("collaborated", "abe", "pat")) {
		t.Error("abe-pat collaboration not covered")
	}
	if i.CoversExample(c, logic.GroundAtom("collaborated", "abe", "bea")) {
		// abe and bea share no publication… but X and Y can both bind to the
		// same person via P; abe-bea have no shared title.
		t.Error("abe-bea should not be covered")
	}
	// Head predicate mismatch.
	if i.CoversExample(c, logic.GroundAtom("other", "abe", "pat")) {
		t.Error("wrong head predicate covered")
	}
	// Repeated head variable.
	c2 := logic.MustParseClause("self(X,X) :- student(X).")
	if !i.CoversExample(c2, logic.GroundAtom("self", "abe", "abe")) {
		t.Error("self(abe,abe) should be covered")
	}
	if i.CoversExample(c2, logic.GroundAtom("self", "abe", "bea")) {
		t.Error("self(abe,bea) must not be covered")
	}
}

func TestEvalClause(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("collaborated(X,Y) :- publication(P,X), publication(P,Y).")
	got, err := i.EvalClause(c)
	if err != nil {
		t.Fatal(err)
	}
	// t1 is shared by abe and pat: pairs (abe,abe),(abe,pat),(pat,abe),(pat,pat)
	// t2 only bea: (bea,bea). Total 5 distinct.
	if len(got) != 5 {
		t.Fatalf("EvalClause = %v", got)
	}
	keys := make(map[string]bool)
	for _, a := range got {
		keys[a.Key()] = true
	}
	for _, want := range []string{"collaborated\x00abe\x00pat", "collaborated\x00pat\x00abe", "collaborated\x00bea\x00bea"} {
		if !keys[want] {
			t.Errorf("missing %q", want)
		}
	}
}

func TestEvalClauseUnsafe(t *testing.T) {
	i := smallInstance(t)
	if _, err := i.EvalClause(logic.MustParseClause("t(X,Z) :- student(X).")); err == nil {
		t.Error("unsafe clause must be rejected")
	}
}

func TestEvalDefinition(t *testing.T) {
	i := smallInstance(t)
	d := logic.MustParseDefinition(`
		person(X) :- student(X).
		person(X) :- professor(X).
		person(X) :- student(X).
	`)
	got, err := i.EvalDefinition(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // abe, bea, pat — deduplicated across clauses
		t.Errorf("EvalDefinition = %v", got)
	}
	dBad := logic.MustParseDefinition("t(X,Z) :- student(X).")
	if _, err := i.EvalDefinition(dBad); err == nil {
		t.Error("unsafe definition must be rejected")
	}
}

func TestEvalClauseWithConstants(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("senior(X) :- yearsInProgram(X, 5).")
	got, err := i.EvalClause(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Args[0].Name != "bea" {
		t.Errorf("EvalClause = %v", got)
	}
}

func TestEvalArityMismatchAtom(t *testing.T) {
	i := smallInstance(t)
	// student has arity 1; an arity-2 atom over it matches nothing.
	body := []logic.Atom{logic.NewAtom("student", logic.Var("X"), logic.Var("Y"))}
	if i.SatisfyBody(body, nil) {
		t.Error("arity-mismatched atom matched")
	}
}

func TestEvalEmptyBody(t *testing.T) {
	i := smallInstance(t)
	if !i.SatisfyBody(nil, nil) {
		t.Error("empty body is trivially satisfied")
	}
}

// TestEvalBudgetExhaustedCounter: a search cut by the node budget answers
// "not covered" and bumps eval_budget_exhausted once per cut-off; a search
// that finishes within the budget bumps nothing.
func TestEvalBudgetExhaustedCounter(t *testing.T) {
	i := smallInstance(t)
	reg := obs.NewRegistry()
	i.SetObs(obs.NewRun(nil, reg))
	q := i.Prepare(logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y), professor(Y)."))
	covered, uncovered := logic.GroundAtom("collab", "abe", "pat"), logic.GroundAtom("collab", "bea", "pat")
	cutoffs := func() int64 { return reg.Get(obs.CEvalBudgetExhausted) }

	// The covered example needs four search nodes: the root, one per body
	// atom matched, and the solution.
	for _, tc := range []struct {
		budget  int
		ex      logic.Atom
		want    bool
		cutoffs int64
	}{
		{0, covered, true, 0},
		{2, covered, false, 1}, // cut while matching the second atom
		{3, covered, false, 2}, // cut before the solution node
		{4, covered, true, 2},
		{2, uncovered, false, 2}, // fails within two nodes: no cut-off
		{1, uncovered, false, 3},
	} {
		i.SetEvalBudget(tc.budget)
		if got := q.Covers(tc.ex); got != tc.want {
			t.Errorf("budget %d: Covers(%v) = %v, want %v", tc.budget, tc.ex, got, tc.want)
		}
		if got := cutoffs(); got != tc.cutoffs {
			t.Errorf("budget %d, %v: eval_budget_exhausted = %d, want %d", tc.budget, tc.ex, got, tc.cutoffs)
		}
	}
}

// BenchmarkCoversExample measures one direct coverage test: oneshot
// prepares the clause on every call (Instance.CoversExample), prepared
// probes one Query, the coverage-testing access pattern.
func BenchmarkCoversExample(b *testing.B) {
	s := NewSchema()
	s.MustAddRelation("publication", "title", "person")
	i := NewInstance(s)
	for k := 0; k < 2000; k++ {
		i.MustInsert("publication", "t"+itoa(k%500), "p"+itoa(k%97))
	}
	i.Freeze()
	c := logic.MustParseClause("collab(X,Y) :- publication(P,X), publication(P,Y).")
	e := logic.GroundAtom("collab", "p3", "p17")
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			coversSink = i.CoversExample(c, e)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		q := i.Prepare(c)
		q.Covers(e)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			coversSink = q.Covers(e)
		}
	})
}

// coversSink keeps benchmark results live, so no probe is optimized away.
var coversSink bool

// TestPreparedQueryConcurrentProbes: one Query probed from several
// goroutines at once (as the coverage pool's workers share a candidate)
// gives every example the answer a sequential probe gives.
func TestPreparedQueryConcurrentProbes(t *testing.T) {
	i := smallInstance(t)
	i.Freeze()
	q := i.Prepare(logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y)."))
	people := []string{"abe", "bea", "pat", "ghost", "nobody"}
	var exs []logic.Atom
	var want []bool
	for _, x := range people {
		for _, y := range people {
			e := logic.GroundAtom("collab", x, y)
			exs = append(exs, e)
			want = append(want, q.Covers(e))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for k := range exs {
					k := (k + w) % len(exs)
					if got := q.Covers(exs[k]); got != want[k] {
						t.Errorf("worker %d: Covers(%v) = %v, want %v", w, exs[k], got, want[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
