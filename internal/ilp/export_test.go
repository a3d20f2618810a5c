package ilp

import (
	"repro/internal/logic"
	"repro/internal/subsume"
)

// SaturationOf exposes the compiled-target lookup every subsumption probe
// makes.
func (t *Tester) SaturationOf(e logic.Atom) *subsume.Compiled { return t.saturation(e) }

// PlantImpostor files an entry for other under e's key hash, as if the two
// examples' keys collided, and returns a check that the entry is still
// uncompiled.
func (t *Tester) PlantImpostor(e, other logic.Atom) func() bool {
	ent := &satEntry{ex: other}
	t.saturations.Store(e.KeyHash(logic.FNVOffset), ent)
	return func() bool { return ent.cd.Load() == nil }
}

// ExampleCost exposes the engine's shard-sizing cost model.
func (t *Tester) ExampleCost(e logic.Atom) int64 { return t.exampleCost(e) }
