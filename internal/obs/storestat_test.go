package obs

import (
	"strings"
	"testing"
)

func TestStoreStatsInReports(t *testing.T) {
	reg := NewRegistry()
	if r := reg.Snapshot(); r.Store != nil {
		t.Fatalf("sourceless snapshot has store stats: %v", r.Store)
	}
	reg.SetStoreSource(func() map[string]StoreStat {
		return map[string]StoreStat{
			"publication": {Lookups: 10, TuplesScanned: 42, IndexHits: 9, INDExpansions: 3},
			"student":     {Lookups: 2, TuplesScanned: 5},
			"untouched":   {},
		}
	})

	r := reg.Snapshot()
	if len(r.Store) != 2 {
		t.Fatalf("zero-stat relations must be omitted: %v", r.Store)
	}
	if r.Store["publication"].TuplesScanned != 42 {
		t.Errorf("snapshot wrong: %+v", r.Store["publication"])
	}

	var prom strings.Builder
	r.WritePrometheus(&prom)
	for _, want := range []string{
		`sirl_relstore_lookups{rel="publication"} 10`,
		`sirl_relstore_tuples_scanned{rel="publication"} 42`,
		`sirl_relstore_index_hits{rel="publication"} 9`,
		`sirl_relstore_ind_expansions{rel="publication"} 3`,
		`sirl_relstore_lookups{rel="student"} 2`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}

	flat, _ := r.FlatMetricsWithFamilies()
	for name, want := range map[string]float64{
		"relstore_publication_lookups":        10,
		"relstore_publication_tuples_scanned": 42,
		"relstore_student_lookups":            2,
		"relstore_lookups":                    12,
		"relstore_tuples_scanned":             47,
		"relstore_index_hits":                 9,
		"relstore_ind_expansions":             3,
	} {
		if flat[name] != want {
			t.Errorf("flat[%s] = %v, want %v", name, flat[name], want)
		}
	}

	var sum strings.Builder
	r.WriteSummary(&sum)
	if !strings.Contains(sum.String(), "publication") {
		t.Errorf("summary missing store table:\n%s", sum.String())
	}

	// Detaching the source detaches the stats.
	reg.SetStoreSource(nil)
	if r := reg.Snapshot(); r.Store != nil {
		t.Errorf("detached source still reports: %v", r.Store)
	}
}
