package subsume

import (
	"strings"

	"repro/internal/logic"
	"repro/internal/obs"
)

// The pre-change matcher, kept verbatim (comments dropped, names
// prefixed) as the oracle for the prepared-source probe: every target
// owns a private symbol table, and every probe re-interns its source
// through string maps. Its answers, witnesses and node counts are what
// the shared symbol space must reproduce.

// probe runs one pre-change one-shot probe, returning its answer, its
// witness (nil on failure) and the backtracking nodes it charged.
func (cd *legacyCompiled) probe(head *logic.Atom, body []logic.Atom, init logic.Substitution) (bool, logic.Substitution, int) {
	m := &legacyMatcher{cd: cd, nodes: matchBudget}
	ok := m.run(head, body, init)
	used := matchBudget - m.nodes
	if m.exhausted {
		used = matchBudget
	}
	if !ok {
		return false, nil, used
	}
	return true, m.witness(), used
}

// legacyVarSlots assigns dense slots to variable names in first-use order.
type legacyVarSlots struct {
	idx   map[string]int32
	names []string
}

func newLegacyVarSlots() *legacyVarSlots { return &legacyVarSlots{idx: make(map[string]int32)} }

func (v *legacyVarSlots) Slot(name string) int32 {
	if i, ok := v.idx[name]; ok {
		return i
	}
	i := int32(len(v.names))
	v.idx[name] = i
	v.names = append(v.names, name)
	return i
}

func (v *legacyVarSlots) Name(slot int32) string { return v.names[slot] }

func (v *legacyVarSlots) Len() int { return len(v.names) }

type legacyCompiled struct {
	syms     *logic.Symbols
	hasHead  bool
	headPred int32
	headArgs []int32
	lits     []targetLit
	byPred   map[int32][]int32
	byArg    map[argKey][]int32
}

func legacyCompile(d *logic.Clause) *legacyCompiled {
	cd := newLegacyCompiled(len(d.Body))
	cd.hasHead = true
	cd.headPred, cd.headArgs = cd.internTarget(d.Head)
	for _, a := range d.Body {
		cd.addTarget(a)
	}
	return cd
}

func legacyCompileBody(body []logic.Atom) *legacyCompiled {
	cd := newLegacyCompiled(len(body))
	for _, a := range body {
		cd.addTarget(a)
	}
	return cd
}

func newLegacyCompiled(nlits int) *legacyCompiled {
	return &legacyCompiled{
		syms:   logic.NewSymbols(),
		lits:   make([]targetLit, 0, nlits),
		byPred: make(map[int32][]int32),
		byArg:  make(map[argKey][]int32, nlits*2),
	}
}

func (cd *legacyCompiled) internTarget(a logic.Atom) (int32, []int32) {
	args := make([]int32, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			args[i] = cd.syms.Intern(skolemPrefix + t.Name)
		} else {
			args[i] = cd.syms.Intern(t.Name)
		}
	}
	return cd.syms.Intern(a.Pred), args
}

func (cd *legacyCompiled) addTarget(a logic.Atom) {
	pred, args := cd.internTarget(a)
	idx := int32(len(cd.lits))
	cd.lits = append(cd.lits, targetLit{pred: pred, args: args})
	cd.byPred[pred] = append(cd.byPred[pred], idx)
	for pos, sym := range args {
		k := argKey{pred: pred, pos: int32(pos), sym: sym}
		cd.byArg[k] = append(cd.byArg[k], idx)
	}
}

func (m *legacyMatcher) witness() logic.Substitution {
	out := make(logic.Substitution, m.vars.Len())
	for slot := int32(0); slot < int32(m.vars.Len()); slot++ {
		sym, bound := m.subst.Value(slot)
		if !bound {
			continue
		}
		name := m.cd.syms.Name(sym)
		if strings.HasPrefix(name, skolemPrefix) {
			out[m.vars.Name(slot)] = logic.Var(name[len(skolemPrefix):])
		} else {
			out[m.vars.Name(slot)] = logic.Const(name)
		}
	}
	return out
}

type legacyMatcher struct {
	cd        *legacyCompiled
	vars      *legacyVarSlots
	lits      []logic.IAtom
	subst     *logic.Subst
	occ       [][]occEntry // slot → occurrences in source body
	doms      [][]int32    // per literal: candidate target indexes, swap-partitioned
	live      []int32      // per literal: length of the live domain prefix
	domTrail  []domSave
	matched   []bool
	open      []int32
	nodes     int
	exhausted bool
	obsRun    *obs.Run
}

func (m *legacyMatcher) run(head *logic.Atom, body []logic.Atom, init logic.Substitution) bool {
	vars := newLegacyVarSlots()
	m.vars = vars
	var headLit logic.IAtom
	if head != nil {
		hl, ok := m.internSource(*head, vars, init)
		if !ok {
			return false // head predicate absent from the target
		}
		headLit = hl
	}
	m.lits = make([]logic.IAtom, len(body))
	for i, a := range body {
		lit, ok := m.internSource(a, vars, init)
		if !ok {
			return false // predicate absent: the literal has no candidates
		}
		m.lits[i] = lit
	}
	m.subst = &logic.Subst{}
	m.subst.Reset(vars.Len())
	if head != nil && !m.matchHead(headLit) {
		return false
	}
	n := len(m.lits)
	if n == 0 {
		return true
	}
	m.occ = make([][]occEntry, vars.Len())
	for i, lit := range m.lits {
		for p, t := range lit.Args {
			if t.IsVar() {
				s := t.Slot()
				m.occ[s] = append(m.occ[s], occEntry{lit: int32(i), pos: int32(p)})
			}
		}
	}
	m.doms = make([][]int32, n)
	m.live = make([]int32, n)
	m.matched = make([]bool, n)
	m.open = make([]int32, 0, n)
	for _, comp := range m.components() {
		if !m.matchComponent(comp) {
			return false
		}
	}
	return true
}

func (m *legacyMatcher) internSource(a logic.Atom, vars *legacyVarSlots, init logic.Substitution) (logic.IAtom, bool) {
	pred, ok := m.cd.syms.Lookup(a.Pred)
	if !ok {
		return logic.IAtom{}, false
	}
	args := make([]logic.ITerm, len(a.Args))
	for i, t := range a.Args {
		t = init.Resolve(t)
		if t.IsVar {
			args[i] = logic.VarITerm(vars.Slot(t.Name))
		} else if sym, known := m.cd.syms.Lookup(t.Name); known {
			args[i] = logic.ConstITerm(sym)
		} else {
			args[i] = logic.ConstITerm(logic.UnknownSym)
		}
	}
	return logic.IAtom{Pred: pred, Args: args}, true
}

func (m *legacyMatcher) matchHead(head logic.IAtom) bool {
	if !m.cd.hasHead || head.Pred != m.cd.headPred || len(head.Args) != len(m.cd.headArgs) {
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
		if t.Sym() != want {
			return false
		}
	}
	return true
}

func (m *legacyMatcher) components() [][]int32 {
	n := len(m.lits)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	slotOwner := make([]int32, m.subst.Slots())
	for i := range slotOwner {
		slotOwner[i] = -1
	}
	for i, lit := range m.lits {
		for _, t := range lit.Args {
			if !t.IsVar() {
				continue
			}
			s := t.Slot()
			if _, bound := m.subst.Value(s); bound {
				continue // bound variables do not connect literals
			}
			if o := slotOwner[s]; o >= 0 {
				parent[find(int32(i))] = find(o)
			} else {
				slotOwner[s] = int32(i)
			}
		}
	}
	groups := make(map[int32][]int32, n)
	var order []int32
	for i := range m.lits {
		r := find(int32(i))
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], int32(i))
	}
	out := make([][]int32, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

func (m *legacyMatcher) matchComponent(comp []int32) bool {
	for _, i := range comp {
		if !m.initDomain(i) {
			return false
		}
	}
	m.open = append(m.open[:0], comp...)
	return m.search(len(comp))
}

func (m *legacyMatcher) initDomain(i int32) bool {
	lit := m.lits[i]
	cand := m.cd.byPred[lit.Pred]
	for pos, t := range lit.Args {
		sym, known := int32(0), false
		if t.IsVar() {
			if v, bound := m.subst.Value(t.Slot()); bound {
				sym, known = v, true
			}
		} else {
			sym, known = t.Sym(), true
		}
		if !known {
			continue
		}
		if sym < 0 {
			cand = nil // unknown constant: no target argument can equal it
			break
		}
		if l := m.cd.byArg[argKey{pred: lit.Pred, pos: int32(pos), sym: sym}]; len(l) < len(cand) {
			cand = l
		}
	}
	dom := make([]int32, 0, len(cand))
	for _, t := range cand {
		if m.consistent(lit, t) {
			dom = append(dom, t)
		}
	}
	m.doms[i] = dom
	m.live[i] = int32(len(dom))
	return len(dom) > 0
}

func (m *legacyMatcher) consistent(lit logic.IAtom, t int32) bool {
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
			for q := 0; q < p; q++ {
				if lit.Args[q] == st && tgt.args[q] != tgt.args[p] {
					return false
				}
			}
			continue
		}
		if tgt.args[p] != st.Sym() {
			return false
		}
	}
	return true
}

func (m *legacyMatcher) search(openCount int) bool {
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

func (m *legacyMatcher) assign(i, t int32) bool {
	tgt := m.cd.lits[t]
	for p, st := range m.lits[i].Args {
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

func (m *legacyMatcher) propagate(slot, sym int32) bool {
	for _, oc := range m.occ[slot] {
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

func (m *legacyMatcher) undoDoms(mark int) {
	for k := len(m.domTrail) - 1; k >= mark; k-- {
		sv := m.domTrail[k]
		m.live[sv.lit] = sv.oldLive
	}
	m.domTrail = m.domTrail[:mark]
}
