package logic

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// corpusStrings reads the string inputs of one checked-in fuzz corpus
// (testdata/fuzz/<target>), so the interning round trip is exercised on
// exactly the inputs the parser fuzzers accumulated.
func corpusStrings(t *testing.T, target string) []string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus file: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("unquoting corpus line %q: %v", line, err)
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatalf("corpus %s is empty", dir)
	}
	return out
}

// checkKeyHash asserts KeyHash agrees with hash/fnv over Key() plus the
// NUL terminator, from the offset basis and chained from a prior state.
func checkKeyHash(t *testing.T, a Atom) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(a.Key()))
	h.Write([]byte{0})
	if got, want := a.KeyHash(FNVOffset), h.Sum64(); got != want {
		t.Fatalf("KeyHash(%v) = %x, want %x", a, got, want)
	}
	h.Write([]byte(a.Key()))
	h.Write([]byte{0})
	if got, want := a.KeyHash(a.KeyHash(FNVOffset)), h.Sum64(); got != want {
		t.Fatalf("chained KeyHash(%v) = %x, want %x", a, got, want)
	}
}

// TestKeyHashCorpora runs checkKeyHash over every ground atom of the
// checked-in parser fuzz corpora, clause literals included.
func TestKeyHashCorpora(t *testing.T) {
	var atoms []Atom
	for _, src := range corpusStrings(t, "FuzzParseAtomRoundTrip") {
		if a, err := ParseAtom(src); err == nil {
			atoms = append(atoms, a)
		}
	}
	for _, src := range corpusStrings(t, "FuzzParseClauseRoundTrip") {
		if c, err := ParseClause(src); err == nil {
			atoms = append(append(atoms, c.Head), c.Body...)
		}
	}
	n := 0
	for _, a := range atoms {
		if a.IsGround() {
			checkKeyHash(t, a)
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no ground atom in the corpora")
	}
}

// TestQuickKeyHash is the same property over random ground atoms,
// including quote-needing and empty constants.
func TestQuickKeyHash(t *testing.T) {
	f := func(v clauseValue) bool {
		for _, a := range append([]Atom{v.c.Head}, v.c.Body...) {
			g := a.Clone()
			for i := range g.Args {
				g.Args[i] = Const(g.Args[i].Name)
			}
			checkKeyHash(t, g)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestInternSharedSymbols: ids are stable across repeat interning, and
// predicates and constants with equal names share one id (one space).
func TestInternSharedSymbols(t *testing.T) {
	syms := NewSymbols()
	a := syms.Intern("p")
	b := syms.Intern("q")
	if a == b {
		t.Fatalf("distinct names share an id")
	}
	if again := syms.Intern("p"); again != a {
		t.Fatalf("re-interning changed the id: %d != %d", again, a)
	}
	if syms.Len() != 2 {
		t.Fatalf("Len = %d, want 2", syms.Len())
	}
	if _, ok := syms.Lookup("r"); ok {
		t.Fatalf("Lookup invented a symbol")
	}
	if name := syms.Name(b); name != "q" {
		t.Fatalf("Name(%d) = %q", b, name)
	}
}

// TestSubstTrailUndo: UndoTo restores the exact pre-mark state — bindings
// made before the mark survive, bindings after it vanish — across nested
// mark/undo rounds, the backtracking pattern of the compiled matcher.
func TestSubstTrailUndo(t *testing.T) {
	var s Subst
	s.Reset(5)
	snapshot := func() []int32 {
		out := make([]int32, s.Slots())
		for i := range out {
			v, ok := s.Value(int32(i))
			if !ok {
				v = -1
			}
			out[i] = v
		}
		return out
	}
	equal := func(a, b []int32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	s.Bind(0, 7)
	before := snapshot()
	m1 := s.Mark()
	s.Bind(1, 8)
	s.Bind(2, 9)
	mid := snapshot()
	m2 := s.Mark()
	s.Bind(3, 10)
	s.Bind(4, 11)
	if v, ok := s.Value(3); !ok || v != 10 {
		t.Fatalf("Value(3) = %d,%v", v, ok)
	}
	s.UndoTo(m2)
	if !equal(snapshot(), mid) {
		t.Fatalf("inner undo: got %v, want %v", snapshot(), mid)
	}
	if _, ok := s.Value(4); ok {
		t.Fatalf("slot 4 still bound after undo")
	}
	s.UndoTo(m1)
	if !equal(snapshot(), before) {
		t.Fatalf("outer undo: got %v, want %v", snapshot(), before)
	}
	if v, ok := s.Value(0); !ok || v != 7 {
		t.Fatalf("pre-mark binding lost: %d,%v", v, ok)
	}
	// Rebinding after undo works and lands on the trail again.
	s.Bind(1, 12)
	if v, ok := s.Value(1); !ok || v != 12 {
		t.Fatalf("rebinding after undo failed: %d,%v", v, ok)
	}
	// Reset reuses the storage for a fresh, fully unbound substitution.
	s.Reset(3)
	if s.Slots() != 3 || s.Mark() != 0 {
		t.Fatalf("Reset(3): %d slots, trail %d", s.Slots(), s.Mark())
	}
	for i := int32(0); i < 3; i++ {
		if _, ok := s.Value(i); ok {
			t.Fatalf("slot %d still bound after Reset", i)
		}
	}
}

// TestITermPacking: the packed representation distinguishes variables from
// constants and preserves ids, including the UnknownSym sentinel.
func TestITermPacking(t *testing.T) {
	for _, sym := range []int32{0, 1, 1 << 20, UnknownSym} {
		tm := ConstITerm(sym)
		if tm.IsVar() {
			t.Fatalf("ConstITerm(%d) reads as a variable", sym)
		}
		if tm.Sym() != sym {
			t.Fatalf("ConstITerm(%d).Sym() = %d", sym, tm.Sym())
		}
	}
	for _, slot := range []int32{0, 3, 1 << 20} {
		tm := VarITerm(slot)
		if !tm.IsVar() {
			t.Fatalf("VarITerm(%d) reads as a constant", slot)
		}
		if tm.Slot() != slot {
			t.Fatalf("VarITerm(%d).Slot() = %d", slot, tm.Slot())
		}
	}
}
