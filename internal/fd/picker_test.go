package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"clio/internal/budget"
)

// One assertion per pickAlgo routing branch: the picker is the only
// place Compute decides between abort, the outer-join chain, the
// lattice build and the spillable subgraph algorithm.
func TestPickAlgoBranches(t *testing.T) {
	cases := []struct {
		name     string
		isTree   bool
		estimate int64
		headroom int64
		spill    bool
		want     string
	}{
		{"abort when lower bound exceeds headroom", true, 11, 10, false, "abort"},
		{"abort applies to cyclic graphs too", false, 11, 10, false, "abort"},
		{"tree routes to outer join", true, 10, 10, false, "outer_join"},
		{"tree with unlimited budget", true, 1 << 40, -1, false, "outer_join"},
		{"cyclic routes to the lattice", false, 50, 100, false, "lattice"},
		{"cyclic with unlimited budget", false, 1 << 40, -1, false, "lattice"},
		{"zero estimate never aborts", false, 0, 0, false, "lattice"},
		// Spill mode: the cumulative lower bound no longer proves
		// failure (charges refund as state moves to disk), so the
		// up-front abort is off, and cyclic graphs take the subgraph
		// algorithm, whose accumulator can spill.
		{"spill never aborts a tree", true, 11, 10, true, "outer_join"},
		{"spill never aborts a cyclic graph", false, 11, 10, true, "subgraph"},
		{"spill routes cyclic to subgraph", false, 5, 1 << 40, true, "subgraph"},
	}
	for _, c := range cases {
		if got := pickAlgo(c.isTree, c.estimate, c.headroom, c.spill); got != c.want {
			t.Errorf("%s: pickAlgo(%v, %d, %d, %v) = %q, want %q",
				c.name, c.isTree, c.estimate, c.headroom, c.spill, got, c.want)
		}
	}
}

// Boundary semantics of the budget-aware pickers, pinned at exact
// equality. budget.Tracker.Charge is charge-inclusive: charging up to
// the cap succeeds and only a strict excess errors. The pickers must
// agree — est == headroom is exactly affordable, so every refusal
// comparison is strict. These cases fail on any off-by-one drift in
// either direction (refusing affordable work, or accepting doomed
// work).
func TestPickAlgoBoundaryAtHeadroom(t *testing.T) {
	for _, isTree := range []bool{true, false} {
		want := "lattice"
		if isTree {
			want = "outer_join"
		}
		if got := pickAlgo(isTree, 10, 10, false); got != want {
			t.Errorf("tree=%v at equality routed to %q, want %s", isTree, got, want)
		}
		if got := pickAlgo(isTree, 11, 10, false); got != "abort" {
			t.Errorf("tree=%v one past headroom routed to %q, want abort", isTree, got)
		}
	}
}

// One assertion per pickMaintenance branch, the picker of both the
// leaf extension (ComputeIncremental) and the row delta (MaintainRows):
// the cheap update when it fits, full recomputation when only the
// update is doomed, abort when both bounds bust the budget.
func TestPickIncrementalBranches(t *testing.T) {
	cases := []struct {
		name                 string
		extendEst, recompute int64
		headroom             int64
		want                 string
	}{
		{"unlimited budget extends", 1 << 40, 1 << 40, -1, "cheap"},
		{"extension within headroom extends", 10, 50, 10, "cheap"},
		{"doomed extension falls back to full", 20, 10, 10, "full"},
		{"both doomed abort", 20, 11, 10, "abort"},
	}
	for _, c := range cases {
		if got := pickMaintenance(c.extendEst, c.recompute, c.headroom); got != c.want {
			t.Errorf("%s: pickMaintenance(%d, %d, %d) = %q, want %q",
				c.name, c.extendEst, c.recompute, c.headroom, got, c.want)
		}
	}
}

// pickMaintenance at exact equality with the headroom, with the bounds
// ComputeIncremental passes: the leaf extension and a recomputation.
func TestPickIncrementalBoundaryAtHeadroom(t *testing.T) {
	cases := []struct {
		name                              string
		extendEst, recomputeEst, headroom int64
		want                              string
	}{
		// est == headroom: exactly affordable, the extension is taken.
		{"extend at equality", 10, 100, 10, "cheap"},
		// One past the headroom refuses the extension; the recompute
		// bound at equality is still affordable.
		{"full at recompute equality", 11, 10, 10, "full"},
		// Both bounds strictly exceed: no computation can succeed.
		{"abort when both exceed", 11, 11, 10, "abort"},
		// Zero headroom still affords a zero-cost extension (empty old
		// D(G) over an empty leaf base).
		{"extend at zero equality", 0, 5, 0, "cheap"},
		// Unlimited budget always extends, whatever the estimates.
		{"unlimited extends", 1 << 40, 1 << 40, -1, "cheap"},
	}
	for _, c := range cases {
		if got := pickMaintenance(c.extendEst, c.recomputeEst, c.headroom); got != c.want {
			t.Errorf("%s: pickMaintenance(%d, %d, %d) = %q, want %q",
				c.name, c.extendEst, c.recomputeEst, c.headroom, got, c.want)
		}
	}
}

// pickMaintenance at exact equality with the headroom, with the bounds
// MaintainRows passes: the row delta and a rebuild.
func TestPickDeltaBoundaryAtHeadroom(t *testing.T) {
	cases := []struct {
		name                           string
		deltaEst, rebuildEst, headroom int64
		want                           string
	}{
		{"delta at equality", 10, 100, 10, "cheap"},
		{"rebuild at equality", 11, 10, 10, "full"},
		{"abort when both exceed", 11, 11, 10, "abort"},
		{"delta at zero equality", 0, 5, 0, "cheap"},
		{"unlimited applies delta", 1 << 40, 1 << 40, -1, "cheap"},
	}
	for _, c := range cases {
		if got := pickMaintenance(c.deltaEst, c.rebuildEst, c.headroom); got != c.want {
			t.Errorf("%s: pickMaintenance(%d, %d, %d) = %q, want %q",
				c.name, c.deltaEst, c.rebuildEst, c.headroom, got, c.want)
		}
	}
}

// End-to-end charge-inclusivity: learn the exact row charge of a
// deterministic computation, then re-run with MaxRows equal to it
// (must succeed — the cap is inclusive) and one below it (must fail
// with the typed budget error). This pins the convention the pickers'
// strict comparisons assume.
func TestBudgetBoundaryModeExactChargeComputes(t *testing.T) {
	prev := SetCacheCapacity(0)
	defer SetCacheCapacity(prev)
	rng := rand.New(rand.NewSource(99))
	g, in := randomTreeCase(rng, 3, 4)

	ctx := WithBudget(context.Background(), Budget{MaxRows: 1 << 40})
	want, err := Compute(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	used := budget.FromContext(ctx).Rows()
	if used == 0 {
		t.Skip("degenerate random case: nothing charged")
	}

	exact := WithBudget(context.Background(), Budget{MaxRows: used})
	got, err := Compute(exact, g, in)
	if err != nil {
		t.Fatalf("budget of exactly the charge (%d rows) failed: %v", used, err)
	}
	if !got.EqualSet(want) {
		t.Fatal("exact-budget result differs from unlimited result")
	}

	under := WithBudget(context.Background(), Budget{MaxRows: used - 1})
	if _, err := Compute(under, g, in); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget one under the charge returned %v, want budget error", err)
	}
}

// rowHeadroom must report -1 for missing or unlimited budgets and the
// remaining rows otherwise.
func TestRowHeadroom(t *testing.T) {
	if got := rowHeadroom(context.Background()); got != -1 {
		t.Errorf("no tracker: headroom = %d, want -1", got)
	}
	if got := rowHeadroom(WithBudget(context.Background(), Budget{MaxBytes: 64})); got != -1 {
		t.Errorf("rows unlimited: headroom = %d, want -1", got)
	}
	ctx := WithBudget(context.Background(), Budget{MaxRows: 10})
	if got := rowHeadroom(ctx); got != 10 {
		t.Errorf("fresh budget: headroom = %d, want 10", got)
	}
}

// estimateRows must be a certain lower bound: max base size for trees
// (outer-join alignment charges at least the largest relation) and the
// sum of base sizes for cyclic graphs (singleton subsets alone pad one
// row per base tuple).
func TestEstimateRowsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tg, tin := randomTreeCase(rng, 4, 6)
	est, err := estimateRows(tg, tin, true)
	if err != nil {
		t.Fatal(err)
	}
	var max, sum int64
	for _, name := range tg.Nodes() {
		n, _ := tg.Node(name)
		r, err := tin.Aliased(n.Base, n.Base)
		if err != nil {
			t.Fatal(err)
		}
		sum += int64(r.Len())
		if int64(r.Len()) > max {
			max = int64(r.Len())
		}
	}
	if est != max {
		t.Errorf("tree estimate = %d, want max base size %d", est, max)
	}
	if cyc, _ := estimateRows(tg, tin, false); cyc != sum {
		t.Errorf("cyclic estimate = %d, want sum of base sizes %d", cyc, sum)
	}
}

// A budget below the picker's lower bound must abort Compute up front
// with the same typed error a doomed run would return — Limit "rows"
// — and without charging any join work.
func TestBudgetPickerAbortsDoomedCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g, in := randomTreeCase(rng, 3, 6)
	est, err := estimateRows(g, in, g.IsTree())
	if err != nil {
		t.Fatal(err)
	}
	if est < 2 {
		t.Skip("degenerate random case: tiny base relations")
	}
	InvalidateCache()
	ctx := WithBudget(context.Background(), Budget{MaxRows: est - 1})
	_, err = Compute(ctx, g, in)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("doomed compute not refused: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "rows" {
		t.Fatalf("abort error does not name the rows limit: %#v", err)
	}
	if rows, _ := BudgetUsed(ctx); rows != 0 {
		t.Errorf("picker abort still charged %d rows", rows)
	}
}

// pickSpillReplay routes finalize to the serial (recursable) replay
// whenever any single partition's recorded stats exceed a cap —
// parallel workers share the budget and cannot re-partition — and to
// the parallel replay otherwise. Zero caps mean unlimited.
func TestPickSpillReplay(t *testing.T) {
	cases := []struct {
		name                        string
		maxPartBytes, maxPartTuples int64
		capBytes, capRows           int64
		want                        string
	}{
		{"all partitions fit", 100, 10, 1000, 100, "parallel"},
		{"bytes exceed cap", 2000, 10, 1000, 100, "serial"},
		{"tuples exceed cap", 100, 200, 1000, 100, "serial"},
		{"both exceed", 2000, 200, 1000, 100, "serial"},
		{"exactly at cap stays parallel", 1000, 100, 1000, 100, "parallel"},
		{"zero caps are unlimited", 1 << 40, 1 << 40, 0, 0, "parallel"},
		{"row cap alone applies", 100, 200, 0, 100, "serial"},
	}
	for _, c := range cases {
		if got := pickSpillReplay(c.maxPartBytes, c.maxPartTuples, c.capBytes, c.capRows); got != c.want {
			t.Fatalf("%s: pickSpillReplay = %q, want %q", c.name, got, c.want)
		}
	}
}
