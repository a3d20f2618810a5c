package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/eval"
	"repro/internal/ilp"
	"repro/internal/logic"
)

// defText is the definition's canonical rendering; "" for a failed learn.
func defText(d *logic.Definition) string {
	if d == nil {
		return ""
	}
	return d.String()
}

// defHash is a short content hash of a definition, printed per schema so
// two runs' definitions can be compared by eye.
func defHash(d *logic.Definition) string {
	sum := sha256.Sum256([]byte(defText(d)))
	return hex.EncodeToString(sum[:8])
}

// coveredSet is which training examples (positives, then negatives) a
// definition covers on its schema's instance.
func coveredSet(prob *ilp.Problem, d *logic.Definition) []bool {
	exs := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	out := make([]bool, len(exs))
	if d == nil {
		return out
	}
	for i, e := range exs {
		for _, c := range d.Clauses {
			if prob.Instance.CoversExample(c, e) {
				out[i] = true
				break
			}
		}
	}
	return out
}

func sameSet(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verdict collects per-learn failures: a learn fails when it errors,
// panics, or its definition fails a correctness check. Learns are keyed
// by (iteration, schema), so a learn failing two checks counts once.
type verdict struct {
	attempted int
	failed    map[[2]int]bool
	reasons   []string
}

func (v *verdict) fail(iter, schema int, format string, args ...any) {
	if v.failed == nil {
		v.failed = make(map[[2]int]bool)
	}
	v.failed[[2]int{iter, schema}] = true
	v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
}

func (v *verdict) err() error {
	if len(v.reasons) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d learns failed: %v", len(v.failed), v.attempted, v.reasons)
}

// checkRuns checks a run's learns: none failed, and every schema's
// definition is byte-identical across all the run's iterations.
func (b *bench) checkRuns(its []iteration, v *verdict) {
	for n, it := range its {
		for k, lr := range it.learns {
			v.attempted++
			schema := b.w.schemas[k]
			switch {
			case lr.err != nil:
				v.fail(n, k, "%s: %v", schema, lr.err)
			case n > 0 && defText(lr.def) != defText(its[0].learns[k].def):
				v.fail(n, k, "%s: learn %d's definition %s differs from the first learn's %s",
					schema, n+1, defHash(lr.def), defHash(its[0].learns[k].def))
			}
		}
	}
}

// quality evaluates the first iteration's definitions: training-set F1
// per schema (eval.Evaluate) and schema agreement, the fraction of
// schemas whose definition covers exactly the training examples the first
// schema's covers (the paper's Thm 6.2 says all of them do for Castor).
// It prints each schema's definition hash. A workload that requires
// agreement fails every learn of a disagreeing schema.
func (b *bench) quality(its []iteration, v *verdict) (f1, agree float64) {
	first := its[0]
	var ref []bool
	agreeing := 0
	for k, prob := range b.st.probs {
		def := first.learns[k].def
		m := eval.Evaluate(prob.Instance, def, prob.Pos, prob.Neg)
		f1 += m.F1
		set := coveredSet(prob, def)
		if k == 0 {
			ref = set
		}
		same := sameSet(set, ref)
		if same {
			agreeing++
		} else if b.w.requireAgree {
			for n := range its {
				v.fail(n, k, "%s: covers other training examples than %s (Thm 6.2)", b.w.schemas[k], b.w.schemas[0])
			}
		}
		fmt.Fprintf(b.out, "def %s/%s clauses=%d sha256=%s f1=%.4f agrees=%v\n",
			b.w.name, b.w.schemas[k], defLen(def), defHash(def), m.F1, same)
	}
	n := float64(len(b.st.probs))
	return f1 / n, float64(agreeing) / n
}

func defLen(d *logic.Definition) int {
	if d == nil {
		return 0
	}
	return d.Len()
}
