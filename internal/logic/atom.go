package logic

import (
	"sort"
	"strings"
)

// Atom is a predicate applied to a list of terms, e.g. advisedBy(X, Y).
// Atoms in clause bodies are positive literals; the learners in this
// repository work with definite Horn clauses, so negated literals never
// appear explicitly.
type Atom struct {
	// Pred is the relation (predicate) symbol.
	Pred string
	// Args are the argument terms, in schema attribute order.
	Args []Term
}

// NewAtom builds an atom from a predicate symbol and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// GroundAtom builds an atom whose arguments are all constants.
func GroundAtom(pred string, values ...string) Atom {
	return Atom{Pred: pred, Args: Consts(values...)}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether every argument is a constant.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Vars returns the distinct variable names in the atom, in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool, len(a.Args))
	for _, t := range a.Args {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// Constants returns the distinct constant values in the atom, in
// first-occurrence order.
func (a Atom) Constants() []string {
	var out []string
	seen := make(map[string]bool, len(a.Args))
	for _, t := range a.Args {
		if !t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// HasVar reports whether the variable name occurs in the atom.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Args {
		if t.IsVar && t.Name == name {
			return true
		}
	}
	return false
}

// SharesVar reports whether the two atoms have at least one variable in
// common.
func (a Atom) SharesVar(b Atom) bool {
	for _, t := range a.Args {
		if t.IsVar && b.HasVar(t.Name) {
			return true
		}
	}
	return false
}

// Equal reports syntactic equality.
func (a Atom) Equal(b Atom) bool {
	return a.Pred == b.Pred && TermsEqual(a.Args, b.Args)
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Apply returns the atom with the substitution applied to its arguments.
func (a Atom) Apply(s Substitution) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Resolve(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// String renders the atom as pred(arg1,…,argN). A zero-arity atom renders
// as the bare predicate symbol.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	b.WriteString(termsString(a.Args))
	b.WriteByte(')')
	return b.String()
}

// Key returns a canonical string usable as a map key for ground atoms.
// It panics if the atom is not ground.
func (a Atom) Key() string {
	if !a.IsGround() {
		panic("logic: Key called on non-ground atom " + a.String())
	}
	var b strings.Builder
	b.WriteString(a.Pred)
	for _, t := range a.Args {
		b.WriteByte('\x00')
		b.WriteString(t.Name)
	}
	return b.String()
}

// FNVOffset is the initial state of the 64-bit FNV-1a hash KeyHash folds
// into; fnvPrime is its multiplier.
const (
	FNVOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// KeyHash folds the bytes of a.Key() and one NUL terminator into the
// 64-bit FNV-1a state h without building the key: starting from
// FNVOffset, it equals hash/fnv's New64a over Key()+"\x00". Chaining it
// over atoms digests a sequence of keys. It panics if the atom is not
// ground.
func (a Atom) KeyHash(h uint64) uint64 {
	if !a.IsGround() {
		panic("logic: KeyHash called on non-ground atom " + a.String())
	}
	h = fnvString(h, a.Pred)
	for _, t := range a.Args {
		h = fnvString(h*fnvPrime, t.Name) // the NUL separator: h ^ 0 == h
	}
	return h * fnvPrime
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// SortAtoms orders atoms lexicographically by their string form, in place.
// Useful for deterministic output of atom sets.
func SortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool {
		return atoms[i].String() < atoms[j].String()
	})
}
