package bench

import (
	"fmt"

	"lsmkv/internal/cost"
)

// E10: robust vs nominal tuning under workload drift, evaluated on the
// analytical cost model (Endure's experimental shape: rows are observed
// workloads, columns the two tunings).
func E10(scale Scale) ([]*Table, error) {
	sys := cost.System{
		N:                50_000_000,
		EntryBytes:       128,
		PageBytes:        4096,
		BufferBytes:      32 << 20,
		FilterBitsPerKey: 10,
		MonkeyAllocation: true,
	}
	expected := cost.Workload{Writes: 0.85, PointLookups: 0.10, ZeroLookups: 0.05}
	space := cost.CandidateSpace{MinT: 2, MaxT: 16, FullHybrid: true}
	r := cost.TuneRobust(sys, expected, 0.7, space)

	m := cost.Model{Sys: sys}
	t := NewTable("observed workload", "nominal cost (I/O/op)", "robust cost (I/O/op)", "robust wins")
	t.Caption = fmt.Sprintf("expected workload: %.0f%% writes, %.0f%% point reads, %.0f%% zero reads\n"+
		"nominal tuning: %v    robust tuning: %v\n",
		expected.Writes*100, expected.PointLookups*100, expected.ZeroLookups*100,
		r.Nominal.Design, r.Robust.Design)
	for _, obs := range []struct {
		name string
		w    cost.Workload
	}{
		{"as expected (85/10/5)", expected},
		{"mild drift (70/20/10)", cost.Workload{Writes: 0.70, PointLookups: 0.20, ZeroLookups: 0.10}},
		{"read shift (50/35/15)", cost.Workload{Writes: 0.50, PointLookups: 0.35, ZeroLookups: 0.15}},
		{"inverted (15/60/25)", cost.Workload{Writes: 0.15, PointLookups: 0.60, ZeroLookups: 0.25}},
		{"scan surge (40/20/10/30)", cost.Workload{Writes: 0.40, PointLookups: 0.20, ZeroLookups: 0.10, RangeLookups: 0.30, RangeSelectivity: 1e-6}},
	} {
		nc := m.Cost(r.Nominal.Design, obs.w)
		rc := m.Cost(r.Robust.Design, obs.w)
		t.Row(obs.name, nc, rc, rc <= nc)
	}

	// The claim's two halves, as cells: what robustness buys in the worst
	// case over the neighborhood, and what it costs at the expectation.
	price := NewTable("tuning", "worst case over rho=0.7 (I/O/op)", "at the expected workload (I/O/op)")
	price.Row("nominal", r.NominalWorst, r.NominalAtExpected)
	price.Row("robust", r.RobustWorst, r.RobustAtExpected)
	return []*Table{t, price}, nil
}
