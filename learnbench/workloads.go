package main

import (
	"fmt"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/progol"
	"repro/internal/relstore"
)

// workload is one set of inputs the benchmark learns over: a generated
// dataset, the schemas of it that are learned in turn, and the learner.
type workload struct {
	name string
	// generate builds the dataset at the generator's default seed; shrink
	// scales it down (1 = the workload's own scale), for the self-test.
	generate func(shrink float64) (*datasets.Dataset, error)
	schemas  []string
	learner  func() ilp.Learner
	mode     ilp.CoverageMode
	// saturator returns how the learner's coverage tester builds an
	// example's ground bottom clause; the probe replay compiles the same.
	saturator func(prob *ilp.Problem, p ilp.Params) func(e logic.Atom) *logic.Clause
	// requireAgree makes schema_agree < 1 a correctness failure: set where
	// the paper's Thm 6.2 is known to hold on the generated data.
	requireAgree bool
	// serial runs the learn on one core by default. Set where the learn
	// is a stream of tiny coverage batches: spread over two cores of a
	// virtual machine, each batch's hand-off waits on the other core's
	// wake-up, and the wall time measures the host's scheduling.
	serial bool
}

// cores is how many cores the workload learns on when --par is not
// given: one for a serial workload, else every core of the host.
func (w *workload) cores(nproc int) int {
	if w.serial {
		return 1
	}
	return nproc
}

var workloads = []*workload{
	{
		name:      "castor-hiv",
		generate:  hiv(10, ""),
		schemas:   []string{"Initial", "4NF-2"},
		learner:   func() ilp.Learner { return castor.New() },
		mode:      ilp.CoverageSubsumption,
		saturator: castorSaturator,
	},
	{
		name: "castor-uwcse-schemas",
		generate: func(shrink float64) (*datasets.Dataset, error) {
			cfg := datasets.DefaultUWCSE()
			cfg.Scale = 100 * shrink
			return datasets.GenerateUWCSE(cfg)
		},
		schemas:      []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"},
		learner:      func() ilp.Learner { return castor.New() },
		mode:         ilp.CoverageDB,
		saturator:    castorSaturator,
		requireAgree: true,
	},
	{
		name:     "alephprogol-hiv",
		generate: hiv(1, "Initial"),
		schemas:  []string{"Initial"},
		learner:  func() ilp.Learner { return progol.NewAlephProgol() },
		mode:     ilp.CoverageSubsumption,
		serial:   true,
		saturator: func(prob *ilp.Problem, p ilp.Params) func(logic.Atom) *logic.Clause {
			return func(e logic.Atom) *logic.Clause { return ilp.Saturation(prob, e, p.Depth, p.MaxRecall) }
		},
	},
}

func hiv(scale float64, only string) func(float64) (*datasets.Dataset, error) {
	return func(shrink float64) (*datasets.Dataset, error) {
		cfg := datasets.DefaultHIV2K4K()
		cfg.Scale = scale * shrink
		cfg.Only = only
		return datasets.GenerateHIV(cfg)
	}
}

// castorSaturator is Castor's subsumption-mode saturation: the IND-chasing
// ground bottom clause over the stored-procedure plan.
func castorSaturator(prob *ilp.Problem, p ilp.Params) func(logic.Atom) *logic.Clause {
	plan := relstore.CompilePlan(prob.Instance.Schema(), p.SubsetINDs)
	return func(e logic.Atom) *logic.Clause { return castor.GroundBottomClause(prob, plan, e, p) }
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// learnerParams are the castor CLI's defaults (sample 4, beam 2, seed 1)
// at the given coverage-pool width.
func learnerParams(w *workload, par int) ilp.Params {
	p := ilp.Defaults()
	p.Sample = 4
	p.BeamWidth = 2
	p.Seed = 1
	p.Parallelism = par
	p.CoverageMode = w.mode
	return p
}
