package sirl_test

// End-to-end tests of the public facade: everything a downstream user
// would touch, exercised through the root package only.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	sirl "repro"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// buildCollabProblem assembles the quickstart problem through the facade.
func buildCollabProblem(t testing.TB) (*sirl.Problem, *sirl.Instance) {
	t.Helper()
	schema := sirl.NewSchema()
	schema.MustAddRelation("publication", "title", "person")
	// Both target positions range over persons (top-down learners type
	// variables by attribute domain).
	schema.SetDomain("person2", "person")
	db := sirl.NewInstance(schema)
	rows := [][2]string{
		{"p1", "ada"}, {"p1", "grace"},
		{"p2", "ada"}, {"p2", "kurt"},
		{"p3", "edgar"}, {"p3", "grace"},
		{"p4", "alan"},
	}
	for _, r := range rows {
		db.MustInsert("publication", r[0], r[1])
	}
	prob := &sirl.Problem{
		Instance: db,
		Target:   &sirl.Relation{Name: "collaborated", Attrs: []string{"person", "person2"}},
		Pos: []sirl.Atom{
			sirl.GroundAtom("collaborated", "ada", "grace"),
			sirl.GroundAtom("collaborated", "ada", "kurt"),
			sirl.GroundAtom("collaborated", "edgar", "grace"),
		},
		Neg: []sirl.Atom{
			sirl.GroundAtom("collaborated", "ada", "edgar"),
			sirl.GroundAtom("collaborated", "kurt", "grace"),
			sirl.GroundAtom("collaborated", "alan", "ada"),
		},
	}
	return prob, db
}

func TestFacadeLearners(t *testing.T) {
	prob, db := buildCollabProblem(t)
	want, err := sirl.ParseDefinition("collaborated(X,Y) :- publication(P,X), publication(P,Y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, learner := range []sirl.Learner{
		sirl.NewCastor(), sirl.NewFOIL(), sirl.NewAlephFOIL(), sirl.NewAlephProgol(), sirl.NewProGolem(), sirl.NewGolem(),
	} {
		params := sirl.DefaultParams()
		params.Sample = 3
		def, err := learner.Learn(prob, params)
		if err != nil {
			t.Fatalf("%s: %v", learner.Name(), err)
		}
		if def.IsEmpty() {
			t.Errorf("%s learned nothing", learner.Name())
			continue
		}
		m := sirl.Evaluate(db, def, prob.Pos, prob.Neg)
		if m.Recall < 0.99 || m.Precision < 0.99 {
			t.Errorf("%s: %v\n%v", learner.Name(), m, def)
		}
		if !sirl.EquivalentDefinitions(def, want) {
			t.Logf("%s: learned a non-minimal but correct definition: %v", learner.Name(), def)
		}
	}
}

func TestFacadeSubsumption(t *testing.T) {
	a := sirl.MustParseClause("t(X) :- p(X,Y).")
	b := sirl.MustParseClause("t(a) :- p(a,b), q(b).")
	if !sirl.Subsumes(a, b) || sirl.Subsumes(b, a) {
		t.Error("Subsumes facade wrong")
	}
	if _, err := sirl.ParseClause("("); err == nil {
		t.Error("ParseClause should propagate errors")
	}
}

func TestFacadeTransform(t *testing.T) {
	schema := sirl.NewSchema()
	schema.MustAddRelation("r", "a", "b", "c")
	pipe := sirl.NewPipeline(schema)
	if err := pipe.Decompose("r",
		sirl.Part{Name: "r1", Attrs: []string{"a", "b"}},
		sirl.Part{Name: "r2", Attrs: []string{"a", "c"}},
	); err != nil {
		t.Fatal(err)
	}
	db := sirl.NewInstance(schema)
	db.MustInsert("r", "1", "x", "k")
	out, err := pipe.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("r1").Len() != 1 || out.Table("r2").Len() != 1 {
		t.Errorf("decomposition wrong: %d/%d", out.Table("r1").Len(), out.Table("r2").Len())
	}
	back, err := pipe.Inverse().Apply(out)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Error("facade round trip failed")
	}
}

func TestFacadeQueryBasedLearning(t *testing.T) {
	schema := sirl.NewSchema()
	schema.MustAddRelation("p", "a", "b")
	target := &sirl.Relation{Name: "t", Attrs: []string{"a"}}
	def, err := sirl.ParseDefinition("t(X) :- p(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sirl.NewOracle(schema, target, def)
	if err != nil {
		t.Fatal(err)
	}
	h, stats, err := sirl.LearnByQueries(oracle, schema, target)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exact || !sirl.EquivalentDefinitions(h, def) {
		t.Errorf("query learning failed: %v (stats %+v)", h, stats)
	}
	if stats.EQs == 0 || stats.MQs == 0 {
		t.Errorf("query counters empty: %+v", stats)
	}
}

func TestFacadeDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for _, gen := range []func() (*sirl.Dataset, error){sirl.GenerateUWCSE, sirl.GenerateHIV, sirl.GenerateIMDb} {
		ds, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Variants) < 3 || len(ds.Pos) == 0 {
			t.Errorf("%s degenerate", ds.Name)
		}
		if _, err := ds.Problem(ds.Variants[0].Name); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
	}
}

// TestTelemetryDoesNotChangeBaselines: for each baseline learner, a run
// traced into a JSONL span sink learns the byte-identical definition of an
// unobserved run, and the trace carries what the learner records about
// its search as span fields: every covering iteration's clause, what the
// loop left uncovered, and each learner's own per-round record.
func TestTelemetryDoesNotChangeBaselines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		learner func() sirl.Learner
		kind    string   // the span kind the learner's own record moved to
		keys    []string // fields some span of that kind must carry
	}{
		{"golem", sirl.NewGolem, "greedy_extension", []string{"score", "clause"}},
		{"progolem", sirl.NewProGolem, "beam_round", []string{"iter", "beam", "candidates", "best", "kept"}},
		{"foil", sirl.NewFOIL, "beam_round", []string{"iter", "candidates", "pos", "neg", "literal", "gain"}},
		// Aleph-Progol opens no spans of its own inside the covering loop.
		{"aleph-progol", sirl.NewAlephProgol, "covering_iteration", []string{"clauses", "uncovered", "literals"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			learn := func(run *obs.Run) string {
				params := sirl.DefaultParams()
				params.Depth = 2
				params.Sample = 3
				params.Obs = run
				def, err := tc.learner().Learn(testfix.NewWorld(8).ProblemOriginal(), params)
				if err != nil {
					t.Fatal(err)
				}
				return def.String()
			}
			plain := learn(nil)
			var trace bytes.Buffer
			sink := obs.NewJSONLSink(&trace)
			traced := learn(obs.NewRun(sink, nil))
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if plain != traced {
				t.Fatalf("tracing changed the learned definition:\nuntraced: %s\ntraced:   %s", plain, traced)
			}

			byKind := map[string][]map[string]any{}
			sc := bufio.NewScanner(&trace)
			for sc.Scan() {
				var obj map[string]any
				if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
					t.Fatalf("trace line %q does not parse: %v", sc.Text(), err)
				}
				kind, _ := obj["span"].(string)
				if kind == "" {
					t.Fatalf("trace line %q is not a span line", sc.Text())
				}
				byKind[kind] = append(byKind[kind], obj)
			}
			has := func(kind string, keys ...string) bool {
				for _, sp := range byKind[kind] {
					n := 0
					for _, k := range keys {
						if _, ok := sp[k]; ok {
							n++
						}
					}
					if n == len(keys) {
						return true
					}
				}
				return false
			}
			for _, want := range []struct {
				kind string
				keys []string
			}{
				{"learn", []string{"learner", "clauses", "uncovered"}},
				{"covering_iteration", []string{"accepted", "pos", "neg", "clause"}},
				{tc.kind, tc.keys},
			} {
				if !has(want.kind, want.keys...) {
					t.Errorf("no %s span carries %v (saw %d spans of the kind)", want.kind, want.keys, len(byKind[want.kind]))
				}
			}
		})
	}
}
