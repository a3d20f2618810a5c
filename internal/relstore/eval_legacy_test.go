package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/obs"
)

// The string-keyed conjunctive-query solver the prepared Query replaced,
// kept only as a differential oracle: it re-resolves tables, variables and
// constants by name at every search node, clones map substitutions and
// allocates a rest slice per node and a filter slice per multi-column
// lookup. Its search order, budget and table statistics are the contract
// the prepared solver must reproduce exactly.

// legacyCtx is the old per-call state, plus whether the budget ran out.
type legacyCtx struct {
	nodes     int
	scanned   int64
	exhausted bool
}

func (c *legacyCtx) flush(run *obs.Run) {
	if c.scanned > 0 {
		run.Add(obs.CTuplesScanned, c.scanned)
	}
	if c.exhausted {
		run.Inc(obs.CEvalBudgetExhausted)
	}
}

func (i *Instance) legacySatisfyBody(body []logic.Atom, init logic.Substitution) bool {
	if init == nil {
		init = logic.NewSubstitution()
	}
	init = init.Clone()
	found := false
	ctx := legacyCtx{nodes: i.budget()}
	i.legacyForEachSolution(body, init, &ctx, func(logic.Substitution) bool {
		found = true
		return false
	})
	ctx.flush(i.obs)
	return found
}

func (i *Instance) legacyWitnessBody(body []logic.Atom, init logic.Substitution) logic.Substitution {
	if init == nil {
		init = logic.NewSubstitution()
	}
	init = init.Clone()
	var witness logic.Substitution
	ctx := legacyCtx{nodes: i.budget()}
	i.legacyForEachSolution(body, init, &ctx, func(s logic.Substitution) bool {
		witness = s.Clone()
		return false
	})
	ctx.flush(i.obs)
	return witness
}

func (i *Instance) legacyCoverageWitness(c *logic.Clause, e logic.Atom) logic.Substitution {
	s, ok := logic.MatchAtoms(c.Head, e, logic.NewSubstitution())
	if !ok {
		return nil
	}
	return i.legacyWitnessBody(c.Body, s)
}

func (i *Instance) legacyCoversExample(c *logic.Clause, e logic.Atom) bool {
	s, ok := logic.MatchAtoms(c.Head, e, logic.NewSubstitution())
	if !ok {
		return false
	}
	return i.legacySatisfyBody(c.Body, s)
}

func (i *Instance) legacyEvalClause(c *logic.Clause) []logic.Atom {
	var out []logic.Atom
	seen := make(map[string]bool)
	ctx := legacyCtx{nodes: i.budget()}
	i.legacyForEachSolution(c.Body, logic.NewSubstitution(), &ctx, func(s logic.Substitution) bool {
		h := c.Head.Apply(s)
		if k := h.Key(); !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
		return true
	})
	ctx.flush(i.obs)
	return out
}

// legacyRowsWith is the old allocating rowsWith.
func (t *Table) legacyRowsWith(req []reqCol) (rows []int32, all bool) {
	t.stats.lookups.Add(1)
	if len(req) == 0 {
		t.stats.scanned.Add(int64(t.nrows))
		return nil, true
	}
	best, bestLen := -1, -1
	for k, rc := range req {
		n := t.countMatching(rc.col, rc.val)
		if bestLen == -1 || n < bestLen {
			best, bestLen = k, n
		}
	}
	if t.indexed {
		t.stats.indexHits.Add(1)
	}
	probe := t.matchingRows(req[best].col, req[best].val, nil)
	t.stats.scanned.Add(int64(len(probe)))
	if len(req) == 1 {
		return probe, false
	}
	out := make([]int32, 0, len(probe))
	ar := t.rel.Arity()
	for _, r := range probe {
		base := int(r) * ar
		ok := true
		for _, rc := range req {
			if t.data[base+rc.col] != rc.val {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, false
}

func (i *Instance) legacyForEachSolution(atoms []logic.Atom, s logic.Substitution, ctx *legacyCtx, yield func(logic.Substitution) bool) bool {
	ctx.nodes--
	if ctx.nodes < 0 {
		ctx.exhausted = true
		return false
	}
	if len(atoms) == 0 {
		return yield(s)
	}
	bestIdx, bestCount := -1, -1
	for k, a := range atoms {
		n := i.legacyCandidateEstimate(a, s)
		if bestCount == -1 || n < bestCount {
			bestIdx, bestCount = k, n
			if n == 0 {
				return true
			}
		}
	}
	atom := atoms[bestIdx]
	rest := make([]logic.Atom, 0, len(atoms)-1)
	rest = append(rest, atoms[:bestIdx]...)
	rest = append(rest, atoms[bestIdx+1:]...)

	t := i.tables[atom.Pred]
	if t == nil || t.rel.Arity() != atom.Arity() {
		return true
	}
	var req []reqCol
	for col, arg := range atom.Args {
		r := s.Resolve(arg)
		if !r.IsVar {
			req = append(req, reqCol{col, t.lookupVal(r.Name)})
		}
	}
	step := func(r int32) bool {
		trail, ok := t.legacyBindRow(atom, r, s)
		if !ok {
			return true
		}
		if !i.legacyForEachSolution(rest, s, ctx, yield) {
			return false
		}
		for _, v := range trail {
			delete(s, v)
		}
		return true
	}
	rows, allRows := t.legacyRowsWith(req)
	if allRows {
		ctx.scanned += int64(t.nrows)
		for r := 0; r < t.nrows; r++ {
			if !step(int32(r)) {
				return false
			}
		}
		return true
	}
	ctx.scanned += int64(len(rows))
	for _, r := range rows {
		if !step(r) {
			return false
		}
	}
	return true
}

func (t *Table) legacyBindRow(atom logic.Atom, r int32, s logic.Substitution) ([]string, bool) {
	base := int(r) * t.rel.Arity()
	var trail []string
	for col, arg := range atom.Args {
		res := s.Resolve(arg)
		v := t.data[base+col]
		if res.IsVar {
			s[res.Name] = logic.Const(t.syms.Name(v))
			trail = append(trail, res.Name)
			continue
		}
		if id, ok := t.syms.Lookup(res.Name); !ok || id != v {
			for _, x := range trail {
				delete(s, x)
			}
			return nil, false
		}
	}
	return trail, true
}

func (i *Instance) legacyCandidateEstimate(a logic.Atom, s logic.Substitution) int {
	t := i.tables[a.Pred]
	if t == nil || t.rel.Arity() != a.Arity() {
		return 0
	}
	best := t.Len()
	for col, arg := range a.Args {
		r := s.Resolve(arg)
		if r.IsVar {
			continue
		}
		if n := t.countMatching(col, t.lookupVal(r.Name)); n < best {
			best = n
		}
	}
	return best
}

// evalTrace is what one evaluation leaves behind besides its answer: the
// per-table statistics and the run's scan and cut-off counters.
type evalTrace struct {
	stats     map[string]obs.StoreStat
	scanned   int64
	exhausted int64
}

// traced runs f on a fresh registry and zeroed table statistics.
func traced(inst *Instance, f func()) evalTrace {
	reg := obs.NewRegistry()
	inst.SetObs(obs.NewRun(nil, reg))
	inst.ResetStoreStats()
	f()
	inst.SetObs(nil)
	return evalTrace{inst.StoreStats(), reg.Get(obs.CTuplesScanned), reg.Get(obs.CEvalBudgetExhausted)}
}

// diffEval checks every query entry point of the prepared solver against
// the legacy oracle on one clause, example and init substitution: answers,
// witnesses, EvalClause results in order, table statistics and counters.
func diffEval(inst *Instance, c *logic.Clause, e logic.Atom, init logic.Substitution) error {
	type pair struct {
		name      string
		got, want func() any
	}
	q := inst.Prepare(c)
	pairs := []pair{
		{"Covers", func() any { return q.Covers(e) }, func() any { return inst.legacyCoversExample(c, e) }},
		{"CoversExample", func() any { return inst.CoversExample(c, e) }, func() any { return inst.legacyCoversExample(c, e) }},
		{"SatisfyBody", func() any { return inst.SatisfyBody(c.Body, init) }, func() any { return inst.legacySatisfyBody(c.Body, init) }},
		{"WitnessBody", func() any { return inst.WitnessBody(c.Body, init) }, func() any { return inst.legacyWitnessBody(c.Body, init) }},
		{"CoverageWitness", func() any { return inst.CoverageWitness(c, e) }, func() any { return inst.legacyCoverageWitness(c, e) }},
	}
	if c.IsSafe() {
		pairs = append(pairs, pair{"EvalClause",
			func() any { out, _ := inst.EvalClause(c); return out },
			func() any { return inst.legacyEvalClause(c) }})
	}
	for _, p := range pairs {
		var got, want any
		gt := traced(inst, func() { got = p.got() })
		wt := traced(inst, func() { want = p.want() })
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s(%v, %v, init %v) = %v, legacy %v", p.name, c, e, init, got, want)
		}
		if !reflect.DeepEqual(gt, wt) {
			return fmt.Errorf("%s(%v, %v, init %v): trace %+v, legacy %+v", p.name, c, e, init, gt, wt)
		}
	}
	return nil
}

// randEvalInstance fills a four-relation schema (arities 1–3) with random
// tuples over a small constant pool, so joins hit plenty of collisions.
func randEvalInstance(r *rand.Rand, indexed bool) *Instance {
	s := NewSchema()
	s.MustAddRelation("s", "a")
	s.MustAddRelation("p", "a", "b")
	s.MustAddRelation("q", "b", "c")
	s.MustAddRelation("r", "a", "b", "c")
	inst := newInstance(s, indexed)
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	for _, rel := range s.Relations() {
		for n := r.Intn(14); n > 0; n-- {
			tp := make([]string, rel.Arity())
			for k := range tp {
				tp[k] = vals[r.Intn(len(vals))]
			}
			inst.MustInsert(rel.Name, tp...)
		}
	}
	return inst
}

// randEvalCase draws a clause over the instance's relations (plus an
// absent one and wrong arities), an example of its head predicate, and an
// init substitution. Constants come from the instance's pool and from
// names the instance lacks.
func randEvalCase(r *rand.Rand) (*logic.Clause, logic.Atom, logic.Substitution) {
	vars := []string{"A", "B", "C", "D", "E"}
	consts := []string{"v0", "v1", "v2", "v4", "zz"}
	exConsts := []string{"v0", "v1", "v2", "v3", "zz", "u1", "u2"}
	term := func() logic.Term {
		if r.Intn(4) == 0 {
			return logic.Const(consts[r.Intn(len(consts))])
		}
		return logic.Var(vars[r.Intn(len(vars))])
	}
	preds := []struct {
		name  string
		arity int
	}{{"s", 1}, {"p", 2}, {"q", 2}, {"r", 3}, {"ghost", 1}, {"p", 3}}
	body := make([]logic.Atom, r.Intn(5))
	for k := range body {
		pr := preds[r.Intn(len(preds))]
		if r.Intn(6) != 0 { // mostly well-formed atoms
			pr = preds[r.Intn(4)]
		}
		args := make([]logic.Term, pr.arity)
		for j := range args {
			args[j] = term()
		}
		body[k] = logic.NewAtom(pr.name, args...)
	}
	head := make([]logic.Term, 1+r.Intn(3))
	for j := range head {
		head[j] = term()
	}
	c := &logic.Clause{Head: logic.NewAtom("t", head...), Body: body}
	pred, arity := "t", len(head)
	switch r.Intn(12) {
	case 0:
		pred = "u"
	case 1:
		arity++
	}
	ex := make([]string, arity)
	for j := range ex {
		ex[j] = exConsts[r.Intn(len(exConsts))]
	}
	// init binds some variables to constants and chains others to later
	// variables, so it stays acyclic.
	init := logic.NewSubstitution()
	for k, v := range vars {
		switch r.Intn(8) {
		case 0:
			init.Bind(v, logic.Const(exConsts[r.Intn(len(exConsts))]))
		case 1:
			if k+1 < len(vars) {
				init.Bind(v, logic.Var(vars[k+1+r.Intn(len(vars)-k-1)]))
			}
		}
	}
	return c, logic.GroundAtom(pred, ex...), init
}

// TestQuickPreparedQueryMatchesLegacy: on generated instances (indexed
// and unindexed), clauses, examples and init substitutions, every entry
// point of the prepared solver returns what the string-keyed solver
// returned, in the same order, leaves the same per-table lookups and
// scans, and reports the same tuples_scanned — also under small budgets
// that cut the search, where eval_budget_exhausted must agree too.
func TestQuickPreparedQueryMatchesLegacy(t *testing.T) {
	check := func(seed int64, indexed bool, small uint8) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randEvalInstance(r, indexed)
		if small%3 == 0 {
			inst.SetEvalBudget(1 + int(small)%40)
		}
		for k := 0; k < 8; k++ {
			c, e, init := randEvalCase(r)
			if err := diffEval(inst, c, e, init); err != nil {
				t.Logf("seed %d indexed %v budget %d: %v", seed, indexed, inst.budget(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedQueryEdgeCases pins the shapes where interning could change
// an answer, each against the legacy oracle and an expected answer.
func TestPreparedQueryEdgeCases(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		s := NewSchema()
		s.MustAddRelation("p", "a", "b")
		s.MustAddRelation("s", "a")
		inst := newInstance(s, indexed)
		inst.MustInsert("p", "x", "y")
		inst.MustInsert("p", "z", "z")
		inst.MustInsert("p", "y", "z")
		inst.MustInsert("s", "x")
		for _, tc := range []struct {
			name, clause string
			ex           logic.Atom
			want         bool
		}{
			{"repeated variable in one atom", "t(A) :- p(A, A).", logic.GroundAtom("t", "z"), true},
			{"repeated variable in one atom, no row", "t(A) :- p(A, A).", logic.GroundAtom("t", "x"), false},
			{"repeated head variable, two unknown constants", "t(X, X) :- s(Y).", logic.GroundAtom("t", "u1", "u2"), false},
			{"repeated head variable, one unknown constant twice", "t(X, X) :- s(Y).", logic.GroundAtom("t", "u1", "u1"), true},
			{"unknown constant reaches the body", "t(X, X) :- p(X, Y).", logic.GroundAtom("t", "u1", "u1"), false},
			{"unknown head constant equal to the example's", "t(foo, X) :- s(X).", logic.GroundAtom("t", "foo", "x"), true},
			{"unknown head constant unlike the example's", "t(foo, X) :- s(X).", logic.GroundAtom("t", "bar", "x"), false},
			{"absent relation", "t(X) :- s(X), ghost(X).", logic.GroundAtom("t", "x"), false},
			{"arity mismatch", "t(X) :- s(X, Y).", logic.GroundAtom("t", "x"), false},
			{"empty body", "t(X).", logic.GroundAtom("t", "u9"), true},
			{"head predicate mismatch", "t(X) :- s(X).", logic.GroundAtom("w", "x"), false},
			{"head arity mismatch", "t(X) :- s(X).", logic.GroundAtom("t", "x", "y"), false},
			{"join through a shared variable", "t(X) :- p(X, Y), p(Y, Z), p(Z, Z).", logic.GroundAtom("t", "x"), true},
		} {
			c := logic.MustParseClause(tc.clause)
			if got := inst.Prepare(c).Covers(tc.ex); got != tc.want {
				t.Errorf("indexed %v, %s: Covers(%v, %v) = %v, want %v", indexed, tc.name, c, tc.ex, got, tc.want)
			}
			if err := diffEval(inst, c, tc.ex, nil); err != nil {
				t.Errorf("indexed %v, %s: %v", indexed, tc.name, err)
			}
		}
		// A budget cut at the same node, at every budget up to a full search.
		c := logic.MustParseClause("t(X) :- p(X, Y), p(Y, Z), p(Z, W), s(X).")
		e := logic.GroundAtom("t", "x")
		for budget := 1; budget <= 12; budget++ {
			inst.SetEvalBudget(budget)
			if err := diffEval(inst, c, e, nil); err != nil {
				t.Errorf("indexed %v, budget %d: %v", indexed, budget, err)
			}
		}
		inst.SetEvalBudget(0)
	}
}
