package subsume

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Compiled is a target clause in compile-once/match-many form, the
// substitute for Resumer2's clause compilation: the clause is skolemized
// and interned once into a symbol space (variables become reserved
// constants, names become int32 ids), body literals are indexed by
// predicate and by (predicate, argument position, constant), and every
// later probe matches a prepared Source against the integer form. Names
// the space lacks (skolemized variables, example constants absent from
// the store) get ids from a range reserved above it and local to this
// Compiled, which keeps their names for witnesses.
//
// A Compiled is immutable after construction and safe for concurrent
// probes. Its space must not grow while it is in use.
type Compiled struct {
	space      *logic.Symbols   // shared symbol space; nil keeps every name local
	local      map[string]int32 // names the space lacks → ids from localSym0 up
	localNames []string
	hasHead    bool
	headPred   int32
	headArgs   []int32
	lits       []targetLit
	byPred     map[int32][]int32
	byArg      map[argKey][]int32
}

// localSym0 is the first id of the range a Compiled reserves for the names
// its symbol space lacks; shared-space ids stay far below it.
const localSym0 int32 = 1 << 30

// targetLit is one ground (skolemized) target literal.
type targetLit struct {
	pred int32
	args []int32
}

// argKey addresses the argument-position constant index: the target
// literals of predicate pred holding symbol sym at position pos.
type argKey struct {
	pred int32
	pos  int32
	sym  int32
}

// Compile builds the match-many form of a full clause (head and body) in a
// private symbol space.
func Compile(d *logic.Clause) *Compiled { return CompileIn(nil, d) }

// CompileIn builds the match-many form of a full clause in the given
// symbol space (nil: a private one). Sources prepared in the same space
// probe it without resolving names.
func CompileIn(space *logic.Symbols, d *logic.Clause) *Compiled {
	return compile(space, &d.Head, d.Body)
}

// CompileBody builds the match-many form of a headless body (the
// SubsumesBody target shape) in a private symbol space.
func CompileBody(body []logic.Atom) *Compiled { return compile(nil, nil, body) }

func compile(space *logic.Symbols, head *logic.Atom, body []logic.Atom) *Compiled {
	cd := &Compiled{
		space:  space,
		local:  make(map[string]int32),
		lits:   make([]targetLit, 0, len(body)),
		byPred: make(map[int32][]int32),
		byArg:  make(map[argKey][]int32, len(body)*2),
	}
	if head != nil {
		cd.hasHead = true
		cd.headPred, cd.headArgs = cd.internTarget(*head)
	}
	for _, a := range body {
		cd.addTarget(a)
	}
	return cd
}

// intern returns the id of a target name: its shared-space id, or the
// next local one.
func (cd *Compiled) intern(name string) int32 {
	if id := cd.lookup(name); id != logic.UnknownSym {
		return id
	}
	id := localSym0 + int32(len(cd.localNames))
	cd.local[name] = id
	cd.localNames = append(cd.localNames, name)
	return id
}

// lookup resolves a name to its id in this target without interning it;
// UnknownSym for names neither the target nor its space holds.
func (cd *Compiled) lookup(name string) int32 {
	if id, ok := cd.local[name]; ok {
		return id
	}
	if cd.space != nil {
		if id, ok := cd.space.Lookup(name); ok {
			return id
		}
	}
	return logic.UnknownSym
}

// name is the inverse of intern.
func (cd *Compiled) name(sym int32) string {
	if sym >= localSym0 {
		return cd.localNames[sym-localSym0]
	}
	return cd.space.Name(sym)
}

// internTarget interns one target atom, skolemizing variables: each target
// variable becomes a reserved constant symbol (the NUL-prefixed name can
// collide with no real constant), so the matcher can never bind onto or
// rebind it.
func (cd *Compiled) internTarget(a logic.Atom) (int32, []int32) {
	args := make([]int32, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			args[i] = cd.intern(skolemPrefix + t.Name)
		} else {
			args[i] = cd.intern(t.Name)
		}
	}
	return cd.intern(a.Pred), args
}

func (cd *Compiled) addTarget(a logic.Atom) {
	pred, args := cd.internTarget(a)
	idx := int32(len(cd.lits))
	cd.lits = append(cd.lits, targetLit{pred: pred, args: args})
	cd.byPred[pred] = append(cd.byPred[pred], idx)
	for pos, sym := range args {
		k := argKey{pred: pred, pos: int32(pos), sym: sym}
		cd.byArg[k] = append(cd.byArg[k], idx)
	}
}

// Len returns the number of target body literals.
func (cd *Compiled) Len() int { return len(cd.lits) }

// Subsumes reports whether clause c θ-subsumes the compiled target: some
// substitution maps c's head to the target head and every body literal of
// c to a target body literal.
func (cd *Compiled) Subsumes(c *logic.Clause) bool {
	return cd.Probe(nil, Prepare(cd.space, c))
}

// SubsumesBody reports whether cBody maps into the compiled target body
// under some extension of init, ignoring heads. Bindings in init must map
// onto constants (coverage tests bind onto ground bottom clauses,
// satisfying this); aliases var→var act as shared free variables.
func (cd *Compiled) SubsumesBody(cBody []logic.Atom, init logic.Substitution) bool {
	return cd.Probe(nil, PrepareBody(cd.space, cBody, init))
}

// Witness is Subsumes returning the witnessing substitution: the mapping
// from c's variables to the target symbols they landed on. Target-clause
// variables (skolemized during compilation) are reported under their
// original names as variable terms; everything else is a constant. The
// second return is false — and the substitution nil — when c does not
// subsume the target.
func (cd *Compiled) Witness(c *logic.Clause) (logic.Substitution, bool) {
	return cd.witness(Prepare(cd.space, c))
}

// WitnessBody is SubsumesBody returning the witnessing substitution for
// the source body's variables (init entries are not repeated in it).
func (cd *Compiled) WitnessBody(cBody []logic.Atom, init logic.Substitution) (logic.Substitution, bool) {
	return cd.witness(PrepareBody(cd.space, cBody, init))
}

func (cd *Compiled) witness(src *Source) (logic.Substitution, bool) {
	m := acquire(cd, src, nil)
	defer m.release()
	if !m.run() {
		return nil, false
	}
	out := make(logic.Substitution, len(src.vars))
	for slot, v := range src.vars {
		sym, bound := m.subst.Value(int32(slot))
		if !bound {
			continue
		}
		if name := cd.name(sym); strings.HasPrefix(name, skolemPrefix) {
			out[v] = logic.Var(name[len(skolemPrefix):])
		} else {
			out[v] = logic.Const(name)
		}
	}
	return out, true
}

// Source is a probe clause interned once, to be matched against any
// number of compiled targets; coverage testing prepares each candidate
// once per example list. What depends only on the clause is computed here
// — interned literals, variable occurrences, variable-connected
// components — so a probe only searches. Terms and predicates name
// symbols by index into names. A Source is immutable and safe for
// concurrent probes.
type Source struct {
	space   *logic.Symbols
	hasHead bool
	head    logic.IAtom
	lits    []logic.IAtom
	names   []string     // name index → predicate or constant name
	ids     []int32      // name index → id in space, UnknownSym when absent
	missing bool         // some name is absent from space
	vars    []string     // slot → variable name
	occ     [][]occEntry // slot → occurrences in the body
	comps   [][]int32    // body literal indexes by component
}

// occEntry is one occurrence of a variable slot in the source body.
type occEntry struct {
	lit int32
	pos int32
}

// Prepare interns clause c (head and body) for probing targets compiled
// in space.
func Prepare(space *logic.Symbols, c *logic.Clause) *Source {
	return prepare(space, &c.Head, c.Body, nil)
}

// PrepareBody interns a headless body for probing, resolving its terms
// through init first (the SubsumesBody source shape).
func PrepareBody(space *logic.Symbols, body []logic.Atom, init logic.Substitution) *Source {
	return prepare(space, nil, body, init)
}

func prepare(space *logic.Symbols, head *logic.Atom, body []logic.Atom, init logic.Substitution) *Source {
	src := &Source{space: space, lits: make([]logic.IAtom, len(body))}
	index, slots := make(map[string]int32), make(map[string]int32)
	slot := func(v string) int32 {
		k, ok := slots[v]
		if !ok {
			k = int32(len(src.vars))
			slots[v] = k
			src.vars = append(src.vars, v)
		}
		return k
	}
	name := func(s string) int32 {
		k, ok := index[s]
		if !ok {
			k = int32(len(src.names))
			index[s] = k
			id, found := logic.UnknownSym, false
			if space != nil {
				id, found = space.Lookup(s)
			}
			if !found {
				id, src.missing = logic.UnknownSym, true
			}
			src.names = append(src.names, s)
			src.ids = append(src.ids, id)
		}
		return k
	}
	atom := func(a logic.Atom) logic.IAtom {
		args := make([]logic.ITerm, len(a.Args))
		for i, t := range a.Args {
			if t = init.Resolve(t); t.IsVar {
				args[i] = logic.VarITerm(slot(t.Name))
			} else {
				args[i] = logic.ConstITerm(name(t.Name))
			}
		}
		return logic.IAtom{Pred: name(a.Pred), Args: args}
	}
	if head != nil {
		src.hasHead, src.head = true, atom(*head)
	}
	for i, a := range body {
		src.lits[i] = atom(a)
	}
	src.occ = make([][]occEntry, len(src.vars))
	for i, lit := range src.lits {
		for p, t := range lit.Args {
			if t.IsVar() {
				src.occ[t.Slot()] = append(src.occ[t.Slot()], occEntry{lit: int32(i), pos: int32(p)})
			}
		}
	}
	src.comps = src.components()
	return src
}

// components partitions the body literal indexes into groups connected by
// variables the head leaves unbound (a probe's head match binds every head
// variable, so the grouping is known before any probe). Components are
// independent subproblems: they share no unbound variable, so one
// exponential search becomes several much smaller ones. Groups are
// ordered by their first literal, literals ascending within each.
func (src *Source) components() [][]int32 {
	bound := make([]bool, len(src.vars))
	if src.hasHead {
		for _, t := range src.head.Args {
			if t.IsVar() {
				bound[t.Slot()] = true
			}
		}
	}
	var out [][]int32
	seen := make([]bool, len(src.lits))
	flat := make([]int32, 0, len(src.lits)) // components are windows of it
	for i := range src.lits {
		if seen[i] {
			continue
		}
		seen[i] = true
		start := len(flat)
		flat = append(flat, int32(i))
		for k := start; k < len(flat); k++ {
			for _, t := range src.lits[flat[k]].Args {
				if !t.IsVar() || bound[t.Slot()] {
					continue
				}
				for _, oc := range src.occ[t.Slot()] {
					if !seen[oc.lit] {
						seen[oc.lit] = true
						flat = append(flat, oc.lit)
					}
				}
			}
		}
		comp := flat[start:len(flat):len(flat)]
		slices.Sort(comp)
		out = append(out, comp)
	}
	return out
}

// Probe reports whether the prepared source θ-subsumes the compiled
// target, reporting engine calls, backtracking nodes and budget
// exhaustions into the run (nil observes nothing). The search state comes
// from a pool and is reset between probes, so a steady-state probe does
// not allocate.
func (cd *Compiled) Probe(run *obs.Run, src *Source) bool {
	m := acquire(cd, src, run)
	ok := m.run()
	m.report(run)
	m.release()
	return ok
}

// matcher is the search state of one probe: the source's names resolved
// to target ids, a slot-indexed substitution with a trail, and one live
// candidate domain per open source literal, narrowed on bind and restored
// from the domain trail on backtrack. Its slices outlive the probe: the
// pool hands them to the next one.
type matcher struct {
	cd        *Compiled
	src       *Source
	sym       []int32 // name index → target id for this probe
	symBuf    []int32
	subst     logic.Subst
	doms      [][]int32 // per literal: candidate target indexes, swap-partitioned
	live      []int32   // per literal: length of the live domain prefix
	domTrail  []domSave
	matched   []bool
	open      []int32
	nodes     int
	exhausted bool
	// obsRun feeds the stall watchdog from inside long probes; nil (the
	// Witness paths and unobserved runs) costs one pointer test per batch.
	obsRun *obs.Run
}

// domSave is one domain-narrowing trail entry; undoing restores the live
// length, which resurrects exactly the candidates swapped past it.
type domSave struct {
	lit     int32
	oldLive int32
}

var matchers = sync.Pool{New: func() any { return new(matcher) }}

// acquire takes a matcher from the pool and resets it for one probe of
// src against cd.
func acquire(cd *Compiled, src *Source, run *obs.Run) *matcher {
	m := matchers.Get().(*matcher)
	m.cd, m.src, m.obsRun = cd, src, run
	m.nodes, m.exhausted = matchBudget, false
	m.resolve()
	m.subst.Reset(len(src.vars))
	n := len(src.lits)
	m.doms = resize(m.doms, n)
	m.live = resize(m.live, n)
	m.matched = resize(m.matched, n)
	clear(m.matched)
	m.domTrail = m.domTrail[:0]
	return m
}

// release returns the matcher to the pool, dropping its references to the
// probe's clauses.
func (m *matcher) release() {
	m.cd, m.src, m.obsRun, m.sym = nil, nil, nil, nil
	matchers.Put(m)
}

// resize returns s with length n, reusing its storage when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resolve maps the source's names to target ids. A source prepared in the
// target's own space already carries them, unless it names something the
// space lacks; then, as for a source from another space, every name
// resolves through the target by string.
func (m *matcher) resolve() {
	if m.src.space == m.cd.space && !m.src.missing {
		m.sym = m.src.ids
		return
	}
	m.symBuf = m.symBuf[:0]
	for _, name := range m.src.names {
		m.symBuf = append(m.symBuf, m.cd.lookup(name))
	}
	m.sym = m.symBuf
}

// report flushes the engine-call, node and budget-exhaustion counts of one
// finished top-level match into the run.
func (m *matcher) report(run *obs.Run) {
	run.Inc(obs.CSubsumptionCalls)
	used := matchBudget - m.nodes
	if m.exhausted {
		used = matchBudget // the countdown went negative by one
		run.Inc(obs.CSubsumptionBudgetExhausted)
	}
	run.Add(obs.CSubsumptionNodes, int64(used))
}

// run matches the heads when the target has one, then searches each
// component with forward pruning over incremental domains.
func (m *matcher) run() bool {
	src := m.src
	for _, lit := range src.lits {
		if _, ok := m.cd.byPred[m.sym[lit.Pred]]; !ok {
			return false // predicate absent: the literal has no candidates
		}
	}
	if src.hasHead && !m.matchHead() {
		return false
	}
	for _, comp := range src.comps {
		if !m.matchComponent(comp) {
			return false
		}
	}
	return true
}

// matchHead extends the substitution so the source head maps onto the
// (skolemized, ground) target head.
func (m *matcher) matchHead() bool {
	head := m.src.head
	if !m.cd.hasHead || m.sym[head.Pred] != m.cd.headPred || len(head.Args) != len(m.cd.headArgs) {
		return false
	}
	for i, t := range head.Args {
		want := m.cd.headArgs[i]
		if t.IsVar() {
			slot := t.Slot()
			if sym, bound := m.subst.Value(slot); bound {
				if sym != want {
					return false
				}
				continue
			}
			m.subst.Bind(slot, want)
			continue
		}
		if m.sym[t.Sym()] != want {
			return false
		}
	}
	return true
}

// matchComponent initializes the candidate domains of one component's
// literals and backtracks over them. Bindings of a solved component stay
// in place: later components share no unbound variable with it, so they
// are unaffected, and the union of the per-component assignments is the
// witnessing substitution.
func (m *matcher) matchComponent(comp []int32) bool {
	for _, i := range comp {
		if !m.initDomain(i) {
			return false
		}
	}
	m.open = append(m.open[:0], comp...)
	return m.search(len(comp))
}

// initDomain builds literal i's initial candidate list: starting from the
// shortest applicable argument-position constant index (falling back to
// the predicate index), keep the target literals consistent with the
// literal under the current substitution — constants and bound variables
// must agree positionally, repeated unbound variables must meet equal
// target constants.
func (m *matcher) initDomain(i int32) bool {
	lit := m.src.lits[i]
	pred := m.sym[lit.Pred]
	cand := m.cd.byPred[pred]
	for pos, t := range lit.Args {
		sym, known := int32(0), false
		if t.IsVar() {
			if v, bound := m.subst.Value(t.Slot()); bound {
				sym, known = v, true
			}
		} else {
			sym, known = m.sym[t.Sym()], true
		}
		if !known {
			continue
		}
		if sym < 0 {
			cand = nil // unknown constant: no target argument can equal it
			break
		}
		if l := m.cd.byArg[argKey{pred: pred, pos: int32(pos), sym: sym}]; len(l) < len(cand) {
			cand = l
		}
	}
	dom := m.doms[i][:0]
	for _, t := range cand {
		if m.consistent(lit, t) {
			dom = append(dom, t)
		}
	}
	m.doms[i] = dom
	m.live[i] = int32(len(dom))
	return len(dom) > 0
}

// consistent reports whether target literal t can host the source literal
// under the current substitution.
func (m *matcher) consistent(lit logic.IAtom, t int32) bool {
	tgt := m.cd.lits[t]
	if len(tgt.args) != len(lit.Args) {
		return false
	}
	for p, st := range lit.Args {
		if st.IsVar() {
			if sym, bound := m.subst.Value(st.Slot()); bound {
				if tgt.args[p] != sym {
					return false
				}
				continue
			}
			// Unbound: repeated occurrences inside the literal must land on
			// equal target constants.
			for q := 0; q < p; q++ {
				if lit.Args[q] == st && tgt.args[q] != tgt.args[p] {
					return false
				}
			}
			continue
		}
		if tgt.args[p] != m.sym[st.Sym()] {
			return false
		}
	}
	return true
}

// search backtracks over the first openCount entries of m.open. At each
// node it picks the literal with the smallest live domain (domains are
// maintained incrementally, so selection is a scan, not a re-count) and
// tries its candidates; assignment narrows the neighbours' domains and
// failure restores them from the trails.
func (m *matcher) search(openCount int) bool {
	if openCount == 0 {
		return true
	}
	best, bestLive := 0, m.live[m.open[0]]
	for k := 1; k < openCount && bestLive > 1; k++ {
		if l := m.live[m.open[k]]; l < bestLive {
			best, bestLive = k, l
		}
	}
	i := m.open[best]
	m.open[best], m.open[openCount-1] = m.open[openCount-1], m.open[best]
	m.matched[i] = true
	dom, n := m.doms[i], m.live[i]
	for k := int32(0); k < n; k++ {
		m.nodes--
		if m.nodes < 0 {
			m.exhausted = true
			break
		}
		if m.nodes&4095 == 0 {
			// A pathological probe can spin here for seconds; let the stall
			// watchdog see forward progress once per node batch.
			m.obsRun.Heartbeat()
		}
		smark := m.subst.Mark()
		dmark := len(m.domTrail)
		if m.assign(i, dom[k]) && m.search(openCount-1) {
			return true
		}
		m.subst.UndoTo(smark)
		m.undoDoms(dmark)
		if m.exhausted {
			break
		}
	}
	m.matched[i] = false
	return false
}

// assign binds literal i's unbound variables to target literal t's
// constants and forward-propagates each binding into the open neighbours'
// domains. No consistency check is needed — domain maintenance guarantees
// every live candidate agrees with the current substitution — so the only
// failure mode is a neighbour's domain emptying.
func (m *matcher) assign(i, t int32) bool {
	tgt := m.cd.lits[t]
	for p, st := range m.src.lits[i].Args {
		if !st.IsVar() {
			continue
		}
		slot := st.Slot()
		if _, bound := m.subst.Value(slot); bound {
			continue
		}
		m.subst.Bind(slot, tgt.args[p])
		if !m.propagate(slot, tgt.args[p]) {
			return false
		}
	}
	return true
}

// propagate narrows the domain of every open literal in which the slot
// occurs to the candidates holding sym at that position — the
// arc-consistency-style pruning that replaces per-node candidate
// re-counting. Emptied domains fail the assignment immediately.
func (m *matcher) propagate(slot, sym int32) bool {
	for _, oc := range m.src.occ[slot] {
		if m.matched[oc.lit] {
			continue
		}
		dom, n := m.doms[oc.lit], m.live[oc.lit]
		kept := int32(0)
		for k := int32(0); k < n; k++ {
			if m.cd.lits[dom[k]].args[oc.pos] == sym {
				dom[kept], dom[k] = dom[k], dom[kept]
				kept++
			}
		}
		if kept == n {
			continue
		}
		m.domTrail = append(m.domTrail, domSave{lit: oc.lit, oldLive: n})
		m.live[oc.lit] = kept
		if kept == 0 {
			return false
		}
	}
	return true
}

// undoDoms restores every domain narrowed since the mark.
func (m *matcher) undoDoms(mark int) {
	for k := len(m.domTrail) - 1; k >= mark; k-- {
		sv := m.domTrail[k]
		m.live[sv.lit] = sv.oldLive
	}
	m.domTrail = m.domTrail[:mark]
}
