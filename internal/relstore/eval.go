package relstore

import (
	"fmt"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Conjunctive-query evaluation: satisfying clause bodies against an
// instance, full clause/definition evaluation (the hR(I) of the paper), and
// example coverage.
//
// Every evaluation runs on a prepared Query, the store's counterpart of a
// precompiled stored procedure: Prepare resolves each body atom's table
// once and interns its arguments into variable slots and symbol ids, so a
// search compares int32s and never looks a name up. Coverage testing
// prepares each candidate once per example list (ilp.Tester.Prober,
// eval.Evaluate) and probes it per example; the string-facing entry points
// below prepare a one-shot query per call. Candidate rows are enumerated
// as row ids straight out of the CSR postings (a point probe borrows the
// posting slice without copying), and strings only surface when a
// solution is externalized — as the shared interned name, never a fresh
// allocation. The search state comes from a pool, so a steady-state probe
// of a prepared query allocates nothing.
//
// Evaluation is resource-bounded: conjunctive-query matching is NP-hard in
// the clause length, and bottom-up learners produce long clauses, so each
// top-level call explores at most the instance's evaluation budget of
// search nodes and then reports "no (further) match" — the same cutoff
// discipline subsumption engines like Resumer2 apply — and bumps the
// eval_budget_exhausted counter. The default budget is far beyond what any
// non-pathological clause needs.

// DefaultEvalBudget is the default per-call search-node budget.
const DefaultEvalBudget = 1 << 21

// SetEvalBudget overrides the per-call search budget (0 restores the
// default).
func (i *Instance) SetEvalBudget(nodes int) {
	if nodes <= 0 {
		nodes = DefaultEvalBudget
	}
	i.evalBudget = nodes
}

func (i *Instance) budget() int {
	if i.evalBudget <= 0 {
		return DefaultEvalBudget
	}
	return i.evalBudget
}

// Query is a conjunctive query prepared against one instance: a clause
// (or a headless body) whose body atoms carry their table and whose terms
// are interned — variables as dense slots, constants as the instance's
// symbol ids (UnknownSym for constants the instance lacks, which no row
// holds). A Query is immutable and safe for concurrent use.
type Query struct {
	inst  *Instance
	head  logic.Atom    // the clause head as written; Pred "" when headless
	hargs []logic.ITerm // interned head terms
	atoms []queryAtom   // body atoms in clause order
	vars  []string      // slot → variable name
}

// queryAtom is one interned body atom. t is nil when the relation is
// absent from the schema or the atom's arity does not match it: such an
// atom matches nothing.
type queryAtom struct {
	t    *Table
	args []logic.ITerm
}

// Prepare interns clause c against the instance for repeated coverage
// tests (Query.Covers). Preparing does not scan the store.
func (i *Instance) Prepare(c *logic.Clause) *Query {
	return i.prepare(&c.Head, c.Body, nil)
}

// prepare interns an optional head and a body, resolving terms through
// init first (the SatisfyBody shape).
func (i *Instance) prepare(head *logic.Atom, body []logic.Atom, init logic.Substitution) *Query {
	q := &Query{inst: i, atoms: make([]queryAtom, len(body))}
	slots := make(map[string]int32)
	term := func(t logic.Term) logic.ITerm {
		if t = init.Resolve(t); !t.IsVar {
			id, ok := i.syms.Lookup(t.Name)
			if !ok {
				id = logic.UnknownSym
			}
			return logic.ConstITerm(id)
		}
		k, ok := slots[t.Name]
		if !ok {
			k = int32(len(q.vars))
			slots[t.Name] = k
			q.vars = append(q.vars, t.Name)
		}
		return logic.VarITerm(k)
	}
	if head != nil {
		q.head, q.hargs = *head, make([]logic.ITerm, len(head.Args))
		for k, t := range head.Args {
			q.hargs[k] = term(t)
		}
	}
	for k, a := range body {
		args := make([]logic.ITerm, len(a.Args))
		for col, t := range a.Args {
			args[col] = term(t)
		}
		t := i.tables[a.Pred]
		if t != nil && t.rel.Arity() != len(args) {
			t = nil
		}
		q.atoms[k] = queryAtom{t: t, args: args}
	}
	return q
}

// Covers reports whether the query's clause covers the ground example
// atom e relative to the instance: some θ maps the head onto e and the
// body into the instance. This is the coverage test of Definition 3.1.
// An example constant the instance lacks gets a probe-local id, distinct
// per name, that no row holds; head constants compare with e's terms as
// written.
func (q *Query) Covers(e logic.Atom) bool {
	s := q.acquire()
	found := s.bindHead(e) && s.solve()
	s.release()
	return found
}

// SatisfyBody reports whether some extension of init maps every body atom
// onto a tuple of the instance. Atoms over relations absent from the schema
// never match.
func (i *Instance) SatisfyBody(body []logic.Atom, init logic.Substitution) bool {
	s := i.prepare(nil, body, init).acquire()
	found := s.solve()
	s.release()
	return found
}

// WitnessBody returns the first substitution (in the solver's
// deterministic enumeration order) extending init that maps every body
// atom onto a tuple of the instance, or nil when none exists. It is
// SatisfyBody returning its evidence: `castor explain` renders the result
// as the matching substitution of a coverage witness.
func (i *Instance) WitnessBody(body []logic.Atom, init logic.Substitution) logic.Substitution {
	s := i.prepare(nil, body, init).acquire()
	var w logic.Substitution
	if s.solve() {
		w = s.witness(init)
	}
	s.release()
	return w
}

// CoverageWitness returns the substitution under which clause c covers
// the ground example atom e — the head match extended to a full body
// embedding — or nil when c does not cover e.
func (i *Instance) CoverageWitness(c *logic.Clause, e logic.Atom) logic.Substitution {
	s := i.Prepare(c).acquire()
	var w logic.Substitution
	if s.bindHead(e) && s.solve() {
		w = s.witness(nil)
	}
	s.release()
	return w
}

// CoversExample reports whether clause c covers the ground example atom e
// relative to the instance (Query.Covers on a one-shot query).
func (i *Instance) CoversExample(c *logic.Clause, e logic.Atom) bool {
	return i.Prepare(c).Covers(e)
}

// DefinitionCovers reports whether any clause of the definition covers e.
func (i *Instance) DefinitionCovers(d *logic.Definition, e logic.Atom) bool {
	for _, c := range d.Clauses {
		if i.CoversExample(c, e) {
			return true
		}
	}
	return false
}

// EvalClause computes the result of applying the clause to the instance:
// the set of ground head atoms of all instantiations whose body holds. The
// clause must be safe (otherwise the result would be infinite).
func (i *Instance) EvalClause(c *logic.Clause) ([]logic.Atom, error) {
	if !c.IsSafe() {
		return nil, fmt.Errorf("relstore: EvalClause on unsafe clause %v", c)
	}
	s := i.Prepare(c).acquire()
	var out []logic.Atom
	seen := make(map[string]bool)
	s.yield = func() bool {
		h := s.headAtom()
		if k := h.Key(); !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
		return true
	}
	s.search(0)
	s.release()
	return out, nil
}

// EvalDefinition computes the union of the clause results: hR(I) for a Horn
// definition.
func (i *Instance) EvalDefinition(d *logic.Definition) ([]logic.Atom, error) {
	var out []logic.Atom
	seen := make(map[string]bool)
	for _, c := range d.Clauses {
		atoms, err := i.EvalClause(c)
		if err != nil {
			return nil, err
		}
		for _, a := range atoms {
			k := a.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// solver is the search state of one top-level evaluation of a query: the
// slot substitution with its trail, which body atoms the current branch
// has matched, one row buffer per search depth, the probe-local names of
// example constants the instance lacks, and the remaining budget and scan
// count. Its slices outlive the call: the pool hands them to the next one.
type solver struct {
	q         *Query
	subst     logic.Subst
	used      []bool    // per body atom: matched on the current branch
	rows      [][]int32 // per depth: filtered candidate row ids
	unknown   []string  // probe-local id base+k → example constant name
	base      int32     // first probe-local id: the instance's symbol count
	nodes     int
	scanned   int64
	exhausted bool
	found     bool
	// yield receives each solution when set; returning false stops the
	// search. nil stops at the first solution.
	yield func() bool
}

var solvers = sync.Pool{New: func() any { return new(solver) }}

// acquire takes a solver from the pool and resets it for one evaluation
// of q.
func (q *Query) acquire() *solver {
	s := solvers.Get().(*solver)
	s.q, s.base = q, int32(q.inst.syms.Len())
	s.nodes, s.scanned, s.exhausted, s.found = q.inst.budget(), 0, false, false
	s.subst.Reset(len(q.vars))
	n := len(q.atoms)
	if cap(s.used) < n {
		s.used = make([]bool, n)
	}
	s.used = s.used[:n]
	clear(s.used)
	for len(s.rows) < n {
		s.rows = append(s.rows, nil)
	}
	return s
}

// release reports the evaluation's scans and budget cut-off into the
// instance's run and returns the solver to the pool.
func (s *solver) release() {
	run := s.q.inst.obs
	if s.scanned > 0 {
		run.Add(obs.CTuplesScanned, s.scanned)
	}
	if s.exhausted {
		run.Inc(obs.CEvalBudgetExhausted)
	}
	clear(s.unknown)
	s.unknown = s.unknown[:0]
	s.q, s.yield = nil, nil
	solvers.Put(s)
}

// bindHead binds the head's variable slots to e's symbol ids, reporting
// whether the head matches e at all.
func (s *solver) bindHead(e logic.Atom) bool {
	if s.q.head.Pred != e.Pred || len(s.q.hargs) != len(e.Args) {
		return false
	}
	for k, h := range s.q.hargs {
		g := e.Args[k]
		if !h.IsVar() {
			if s.q.head.Args[k] != g {
				return false
			}
			continue
		}
		id := s.symOf(g.Name)
		if v, bound := s.subst.Value(h.Slot()); bound {
			if v != id {
				return false
			}
			continue
		}
		s.subst.Bind(h.Slot(), id)
	}
	return true
}

// symOf returns the instance's id of an example constant, or its
// probe-local id when the instance lacks it: equal names share an id,
// different names never do.
func (s *solver) symOf(name string) int32 {
	if id, ok := s.q.inst.syms.Lookup(name); ok {
		return id
	}
	for k, u := range s.unknown {
		if u == name {
			return s.base + int32(k)
		}
	}
	s.unknown = append(s.unknown, name)
	return s.base + int32(len(s.unknown)-1)
}

// name externalizes a bound symbol id.
func (s *solver) name(id int32) string {
	if id >= s.base {
		return s.unknown[id-s.base]
	}
	return s.q.inst.syms.Name(id)
}

// solve searches for the first solution.
func (s *solver) solve() bool {
	s.search(0)
	return s.found
}

// value resolves an interned term under the current bindings.
func (s *solver) value(t logic.ITerm) (int32, bool) {
	if t.IsVar() {
		return s.subst.Value(t.Slot())
	}
	return t.Sym(), true
}

// reqCol is one bound column of a literal probe: the column number and
// the symbol id it must hold.
type reqCol struct {
	col int
	val int32
}

// search enumerates extensions of the current bindings that match every
// body atom not yet used, choosing at each node the first remaining atom
// (in clause order) with the smallest candidate estimate. Each call is
// one search node of the budget; it returns false when the search stops
// (a yield said stop, the first solution was found, or the budget ran
// out).
func (s *solver) search(depth int) bool {
	s.nodes--
	if s.nodes < 0 {
		s.exhausted = true
		return false // budget exhausted: cut the search
	}
	atoms := s.q.atoms
	if depth == len(atoms) {
		if s.yield == nil {
			s.found = true
			return false
		}
		return s.yield()
	}
	best, bestN := -1, -1
	for k := range atoms {
		if s.used[k] {
			continue
		}
		if n := s.estimate(&atoms[k]); bestN == -1 || n < bestN {
			best, bestN = k, n
			if n == 0 {
				return true // dead branch: no solutions, but not stopped
			}
		}
	}
	a := &atoms[best]
	var reqBuf [maxInlineArity]reqCol
	req := reqBuf[:0]
	for col, arg := range a.args {
		if v, ok := s.value(arg); ok {
			req = append(req, reqCol{col, v})
		}
	}
	rows, all := a.t.rowsWith(req, &s.rows[depth])
	s.used[best] = true
	if all {
		s.scanned += int64(a.t.nrows)
		for r := 0; r < a.t.nrows; r++ {
			if !s.step(a, int32(r), depth) {
				return false
			}
		}
	} else {
		s.scanned += int64(len(rows))
		for _, r := range rows {
			if !s.step(a, r, depth) {
				return false
			}
		}
	}
	s.used[best] = false
	return true
}

// step matches atom a against row r, binding its free slots on the trail,
// searches the rest, and undoes the bindings. It returns false only when
// the search stops.
func (s *solver) step(a *queryAtom, r int32, depth int) bool {
	mark := s.subst.Mark()
	row := a.t.data[int(r)*len(a.args):]
	for col, arg := range a.args {
		if v, ok := s.value(arg); !ok {
			s.subst.Bind(arg.Slot(), row[col])
		} else if v != row[col] {
			s.subst.UndoTo(mark)
			return true
		}
	}
	if !s.search(depth + 1) {
		return false
	}
	s.subst.UndoTo(mark)
	return true
}

// estimate returns a cheap upper bound on the number of rows matching the
// atom under the current bindings, used for literal selection.
func (s *solver) estimate(a *queryAtom) int {
	if a.t == nil {
		return 0
	}
	best := a.t.nrows
	for col, arg := range a.args {
		if v, ok := s.value(arg); ok {
			if n := a.t.countMatching(col, v); n < best {
				best = n
			}
		}
	}
	return best
}

// witness externalizes the current bindings as a substitution extending
// init.
func (s *solver) witness(init logic.Substitution) logic.Substitution {
	out := init.Clone()
	for slot, v := range s.q.vars {
		if id, ok := s.subst.Value(int32(slot)); ok {
			out[v] = logic.Const(s.name(id))
		}
	}
	return out
}

// headAtom externalizes the head under the current bindings.
func (s *solver) headAtom() logic.Atom {
	args := make([]logic.Term, len(s.q.hargs))
	for k, h := range s.q.hargs {
		if h.IsVar() {
			id, _ := s.subst.Value(h.Slot())
			args[k] = logic.Const(s.name(id))
		} else {
			args[k] = s.q.head.Args[k]
		}
	}
	return logic.Atom{Pred: s.q.head.Pred, Args: args}
}

// rowsWith is TuplesWith over interned requirements: same statistics,
// same most-selective-column start, same ascending result order — but it
// yields row ids instead of materialized tuples. A point probe of an
// indexed table borrows the CSR posting slice without copying; any other
// result is written into *buf, which the caller owns and reuses. An empty
// requirement returns (nil, true): every row matches, and the caller
// iterates the row space directly instead of materializing len(t) ids.
func (t *Table) rowsWith(req []reqCol, buf *[]int32) (rows []int32, all bool) {
	t.stats.lookups.Add(1)
	if len(req) == 0 {
		t.stats.scanned.Add(int64(t.nrows))
		return nil, true
	}
	// Most selective requirement first (deterministically: smallest
	// posting, ties by the lowest column — req is in column order).
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
	probe := t.matchingRows(req[best].col, req[best].val, (*buf)[:0])
	if !t.indexed {
		*buf = probe // the scan wrote into, and may have grown, the buffer
	}
	t.stats.scanned.Add(int64(len(probe)))
	if len(req) == 1 {
		return probe, false
	}
	// Filter into the buffer. On an unindexed table probe already lives
	// there, and the in-place filter's write cursor never passes its read
	// cursor.
	out := (*buf)[:0]
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
	*buf = out
	return out, false
}
