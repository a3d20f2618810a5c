package datasets

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// flipLabelsCopying is the original flipLabels, which shuffled defensive
// copies of both pools and then concatenated their parts into fresh
// slices. It is the oracle for the single-allocation version.
func flipLabelsCopying(r *rng, pos, neg []logic.Atom, frac float64) (outPos, outNeg []logic.Atom) {
	n := int(frac * float64(len(pos)))
	if n <= 0 || len(pos) == 0 || len(neg) == 0 {
		return pos, neg
	}
	if n > len(neg) {
		n = len(neg)
	}
	pos = append([]logic.Atom(nil), pos...)
	neg = append([]logic.Atom(nil), neg...)
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(pos)-i)
		pos[i], pos[j] = pos[j], pos[i]
		k := i + r.Intn(len(neg)-i)
		neg[i], neg[k] = neg[k], neg[i]
	}
	outPos = append(append([]logic.Atom(nil), pos[n:]...), neg[:n]...)
	outNeg = append(append([]logic.Atom(nil), neg[n:]...), pos[:n]...)
	return outPos, outNeg
}

// flipCase is one random flipLabels input: pool sizes, a noise fraction
// in [0, 1] and a generator seed.
type flipCase struct {
	NPos, NNeg int
	Frac       float64
	Seed       int64
}

func (flipCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := flipCase{NPos: r.Intn(40), NNeg: r.Intn(60), Frac: r.Float64(), Seed: r.Int63()}
	switch r.Intn(4) { // the edges: no noise, all noise, tiny pools
	case 0:
		c.Frac = 0
	case 1:
		c.Frac = 1
	case 2:
		c.NPos, c.NNeg = r.Intn(3), r.Intn(3)
	}
	return reflect.ValueOf(c)
}

// TestFlipLabelsMatchesCopyingOracle: the single-allocation flipLabels
// returns the oracle's pools element for element and leaves the generator
// in the same state, so every generated dataset stays byte-identical.
func TestFlipLabelsMatchesCopyingOracle(t *testing.T) {
	pool := func(pred string, n int) []logic.Atom {
		out := make([]logic.Atom, n)
		for i := range out {
			out[i] = logic.GroundAtom(pred, "c"+strconv.Itoa(i))
		}
		return out
	}
	check := func(c flipCase) bool {
		pos, neg := pool("p", c.NPos), pool("n", c.NNeg)
		r1, r2 := newRng(c.Seed), newRng(c.Seed)
		gotPos, gotNeg := flipLabels(r1, pos, neg, c.Frac)
		wantPos, wantNeg := flipLabelsCopying(r2, pos, neg, c.Frac)
		if !reflect.DeepEqual(gotPos, wantPos) || !reflect.DeepEqual(gotNeg, wantNeg) || *r1 != *r2 {
			t.Logf("%+v:\n got %v / %v\nwant %v / %v", c, gotPos, gotNeg, wantPos, wantNeg)
			return false
		}
		// The inputs are never modified.
		return reflect.DeepEqual(pos, pool("p", c.NPos)) && reflect.DeepEqual(neg, pool("n", c.NNeg))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
