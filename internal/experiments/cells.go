package experiments

import (
	"context"
	"fmt"
	"strings"

	"flattree/internal/chaos"
	"flattree/internal/faults"
)

// CellSpec names one experiment cell: an experiment plus, for the figure
// sweeps, the data column to compute. Scenario experiments (faults,
// faultsrecovery, selfheal, soak, latency, hybrid, profile, props) are
// served whole — their stage rows are one coupled trajectory, not
// independent columns — and an optional Column selects a projection of the
// finished table.
//
// The spec carries only result-identity inputs; the worker count and the
// timeout live outside it and never change the bytes a converged cell
// prints. A zero numeric field is unset and takes its knob's default (see
// Knobs).
type CellSpec struct {
	// Experiment is one of CellExperiments().
	Experiment string
	// Column selects a data column by header name; empty means the whole
	// table.
	Column string
	// K is the network size of the experiments that build a single
	// network (faults, faultsrecovery, selfheal, soak, latency, hybrid,
	// profile); unset means the experiment's own default size (hybrid 10,
	// profile 16) or else cfg.KMax. Ignored by the k-sweep figures.
	K int
	// FailFrac and Batch parameterize selfheal; Batch is also soak's
	// repair batch.
	FailFrac float64
	Batch    int
	// Load is latency's offered load in packets per server per unit time.
	Load float64
	// Scenario parameterizes faultsrecovery.
	Scenario faults.Scenario
	// Soak parameterizes the chaos soak's event stream (rate, horizon,
	// episode cap, window cost, SLO threshold, mix); an unset BatchSize
	// means Batch, and Soak fills the solver fields from cfg.
	Soak chaos.Options
}

// experiment is one registry entry: everything Cell, Columns, the CLI and
// the service know about an experiment.
type experiment struct {
	name string
	// header is the full static header (key column first) of a figure
	// whose data columns can be computed independently; nil for scenario
	// experiments, whose columns exist only once the whole trajectory ran.
	header []string
	// singleK marks the experiments that run at the one network size
	// CellSpec.K instead of sweeping Config.Ks().
	singleK bool
	// defaultK is an unset CellSpec.K's value; 0 means Config.KMax.
	defaultK int
	// run computes the table restricted to the data columns cols (indices
	// into header[1:]; nil means all). Scenario experiments ignore cols.
	run func(ctx context.Context, cfg Config, sp CellSpec, cols []int) (*Table, error)
}

// registry lists every experiment, in the order `flatsim all` prints them.
// It is the only per-experiment dispatch: Cell, Columns, CellExperiments,
// cmd/flatsim and internal/serve all go through it.
var registry = []experiment{
	{name: "props", run: func(ctx context.Context, cfg Config, _ CellSpec, _ []int) (*Table, error) {
		t, _, err := Props(ctx, cfg)
		return t, err
	}},
	{name: "fig5", header: fig5Header, run: func(ctx context.Context, cfg Config, _ CellSpec, cols []int) (*Table, error) {
		return fig5(ctx, cfg, cols)
	}},
	{name: "fig6", header: fig6Header, run: func(ctx context.Context, cfg Config, _ CellSpec, cols []int) (*Table, error) {
		return fig6(ctx, cfg, cols)
	}},
	fig7Spec.experiment(),
	fig8Spec.experiment(),
	{name: "hybrid", singleK: true, defaultK: 10, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		t, _, err := Hybrid(ctx, cfg, sp.K)
		return t, err
	}},
	{name: "profile", singleK: true, defaultK: 16, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		t, _, err := Profile(ctx, cfg, sp.K)
		return t, err
	}},
	{name: "faults", singleK: true, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		return Faults(ctx, cfg, sp.K)
	}},
	{name: "faultsrecovery", singleK: true, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		return FaultsRecovery(ctx, cfg, sp.K, sp.Scenario)
	}},
	{name: "selfheal", singleK: true, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		return SelfHeal(ctx, cfg, sp.K, sp.FailFrac, sp.Batch)
	}},
	{name: "soak", singleK: true, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		return Soak(ctx, cfg, sp.K, sp.Soak)
	}},
	{name: "latency", singleK: true, run: func(ctx context.Context, cfg Config, sp CellSpec, _ []int) (*Table, error) {
		return Latency(ctx, cfg, sp.K, sp.Load)
	}},
}

// lookup finds a registry entry by name.
func lookup(name string) (experiment, error) {
	for _, e := range registry {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// CellExperiments lists the experiments Cell accepts, in registry order.
func CellExperiments() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Columns returns a figure experiment's selectable data-column names, in
// table order. Scenario experiments return nil: their columns exist only
// once the trajectory has run, so they are served as whole tables (Cell
// can still project one column out afterwards).
func Columns(experiment string) ([]string, error) {
	e, err := lookup(experiment)
	if err != nil || e.header == nil {
		return nil, err
	}
	return append([]string(nil), e.header[1:]...), nil
}

// columnIndex resolves a column name against a header's data columns.
func columnIndex(header []string, col string) (int, error) {
	for i, h := range header[1:] {
		if h == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: no column %q (have %s)", col, strings.Join(header[1:], ", "))
}

// ProjectColumn narrows a finished table to its key column plus one named
// data column. The projected cells are the full table's bytes, untouched.
func ProjectColumn(t *Table, col string) (*Table, error) {
	ci, err := columnIndex(t.Header, col)
	if err != nil {
		return nil, err
	}
	p := &Table{Title: t.Title, Header: []string{t.Header[0], t.Header[1+ci]}}
	for _, r := range t.Rows {
		if 1+ci < len(r) {
			p.AddRow(r[0], r[1+ci])
		} else {
			p.AddRow(r[0])
		}
	}
	return p, nil
}

// Approximate reports whether any cell carries the trailing "~" marking a
// deadline-truncated (valid but not ε-converged) solve. Serving layers use it
// to keep approximate results out of permanent caches.
func (t *Table) Approximate() bool {
	for _, r := range t.Rows {
		for _, c := range r {
			if strings.HasSuffix(c, "~") {
				return true
			}
		}
	}
	return false
}

// Cell computes one experiment cell. A figure column runs the figure's one
// driver over just that column — the identical work items a full table run
// fans out, merged in the same order — so the cell is byte-identical to the
// same column of the full table by construction. The driver builds, per k,
// only the network that column reads. Scenario experiments run their whole
// driver and, when Column is set, project it afterwards.
func Cell(ctx context.Context, cfg Config, sp CellSpec) (*Table, error) {
	e, err := lookup(sp.Experiment)
	if err != nil {
		return nil, err
	}
	r := Request{Config: cfg, Spec: sp}
	r.applyDefaults(e)
	sp = r.Spec
	if sp.Column == "" {
		return e.run(ctx, cfg, sp, nil)
	}
	if e.header != nil {
		ci, err := columnIndex(e.header, sp.Column)
		if err != nil {
			return nil, err
		}
		return e.run(ctx, cfg, sp, []int{ci})
	}
	t, err := e.run(ctx, cfg, sp, nil)
	if err != nil {
		return t, err
	}
	return ProjectColumn(t, sp.Column)
}

// selectColumns resolves a driver's cols argument (nil = every data column
// of header) and returns it with the matching table header.
func selectColumns(header []string, cols []int) ([]int, []string) {
	if cols == nil {
		cols = make([]int, len(header)-1)
		for i := range cols {
			cols[i] = i
		}
	}
	h := []string{header[0]}
	for _, ci := range cols {
		h = append(h, header[1+ci])
	}
	return cols, h
}

// sweepTable assembles a k-sweep table: one row per k, the key column then
// cell(ki, i) for the i-th selected data column.
func sweepTable(title string, header []string, ks []int, cell func(ki, i int) string) *Table {
	t := &Table{Title: title, Header: header}
	for ki, k := range ks {
		row := []string{fmt.Sprint(k)}
		for i := range header[1:] {
			row = append(row, cell(ki, i))
		}
		t.AddRow(row...)
	}
	return t
}
