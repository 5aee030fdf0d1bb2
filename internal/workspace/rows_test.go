package workspace

import (
	"context"
	"errors"
	"testing"

	"clio/internal/core"
	"clio/internal/fault"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// rowVals parses display cells into a Children row.
func rowVals(cells ...string) []value.Value {
	vals := make([]value.Value, len(cells))
	for i, c := range cells {
		vals[i] = value.Parse(c)
	}
	return vals
}

// mappedTool builds a tool whose active mapping reads Children,
// Parents, and PhoneDir (the Section 2 walk), so row edits on Children
// exercise the delta machinery across a real join chain.
func mappedTool(t *testing.T, in *relation.Instance) *Tool {
	t.Helper()
	ctx := context.Background()
	tl := New(ctx, in, paperdb.Kids(), false)
	if err := tl.Start("kids"); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.Walk(ctx, "Children", "PhoneDir"); err != nil {
		t.Fatal(err)
	}
	return tl
}

// Row edits are maintained continuously: after every ApplyRows the
// target view renders byte-identically to a tool whose instance had
// the same content from the start (cold rebuild), inserts after the
// first take the O(delta) path, and deletes of untracked rows are
// refused without touching anything.
func TestApplyRowsDeltaMatchesColdRebuild(t *testing.T) {
	ctx := context.Background()
	rowA := []string{"012", "Nina", "8", "100", "101", "d3"}
	rowB := []string{"013", "Omar", "9", "102", "103", "d1"}

	tl := mappedTool(t, paperdb.Instance())

	// First edit: no materialization exists yet, so it rebuilds.
	nctx, notes := obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowA...), false); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "recompute" {
		t.Errorf("first edit maintained via %q, want recompute", got)
	}
	// Second edit: the materialization matches, so it delta-applies.
	nctx, notes = obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowB...), false); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "delta" {
		t.Errorf("second edit maintained via %q, want delta", got)
	}
	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Cold reference: both rows present from the start.
	inCold := paperdb.Instance()
	inCold.Relation("Children").AddRow(rowA...)
	inCold.Relation("Children").AddRow(rowB...)
	coldView, err := mappedTool(t, inCold).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView.String() {
		t.Fatalf("delta-maintained view differs from cold rebuild:\n%v\nvs\n%v", view, coldView)
	}

	// Delete rowA through the delta path; the view must match a cold
	// tool that only ever saw rowB.
	nctx, notes = obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowA...), true); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "delta" {
		t.Errorf("delete maintained via %q, want delta", got)
	}
	view, err = tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inCold2 := paperdb.Instance()
	inCold2.Relation("Children").AddRow(rowB...)
	coldView2, err := mappedTool(t, inCold2).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView2.String() {
		t.Fatalf("post-delete view differs from cold rebuild:\n%v\nvs\n%v", view, coldView2)
	}

	// Deleting the already-removed row must be refused.
	if err := tl.ApplyRows(ctx, "Children", rowVals(rowA...), true); err == nil {
		t.Fatal("delete of an absent row should fail")
	}
	// And the refusal touched nothing: the view still matches.
	view2, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view2.String() != coldView2.String() {
		t.Fatal("refused delete perturbed the view")
	}
}

// A maintenance failure (here: the delta application dying on a budget
// violation) must roll the instance mutation back — a failed rows op
// is all-or-nothing, which is what lets journal replay re-execute only
// acknowledged work. Next edits and views behave as if the failed op
// never happened.
func TestChaosRowsBudgetAbortRollsBackInstance(t *testing.T) {
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	// Prime the materialization so the next edit takes the delta path.
	if err := tl.ApplyRows(ctx, "Children", rowVals("012", "Nina", "8", "100", "101", "d3"), false); err != nil {
		t.Fatal(err)
	}
	children := tl.Instance.Relation("Children")
	before := children.Len()
	beforeVersion := children.Version()

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("fd.delta.apply", fault.Spec{Mode: fault.ModeError, Err: fd.ErrBudgetExceeded, Times: 1})

	rowB := rowVals("013", "Omar", "9", "102", "103", "d1")
	err := tl.ApplyRows(ctx, "Children", rowB, false)
	if !errors.Is(err, fd.ErrBudgetExceeded) {
		t.Fatalf("budget-dead edit returned %v, want budget error", err)
	}
	if children.Len() != before {
		t.Fatalf("failed edit left the instance mutated: %d rows, want %d", children.Len(), before)
	}
	tup := relation.NewTuple(children.Scheme(), rowB...)
	if children.IndexOf(tup) >= 0 {
		t.Fatal("rolled-back row still present in the instance")
	}
	if children.Version() == beforeVersion {
		t.Fatal("rollback should still bump the version (mutation happened and was undone)")
	}

	// The tool recovers: the same edit succeeds once the fault is gone,
	// and the view matches a cold rebuild over the final content.
	if err := tl.ApplyRows(ctx, "Children", rowB, false); err != nil {
		t.Fatalf("edit after recovery failed: %v", err)
	}
	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inCold := paperdb.Instance()
	inCold.Relation("Children").AddRow("012", "Nina", "8", "100", "101", "d3")
	inCold.Relation("Children").AddRow("013", "Omar", "9", "102", "103", "d1")
	coldView, err := mappedTool(t, inCold).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView.String() {
		t.Fatalf("post-recovery view differs from cold rebuild:\n%v\nvs\n%v", view, coldView)
	}
}

// Undo restores workspaces from history, whose D(G) caches predate any
// row edit made since. A restored workspace must not serve its stale
// cache: the view after undoing past an edit, and after a further
// edit, must equal a fresh evaluation of the restored mapping.
func TestUndoPastRowEditRefreshesView(t *testing.T) {
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	if err := tl.ApplyRows(ctx, "Children", rowVals("012", "Nina", "8", "100", "101", "d3"), false); err != nil {
		t.Fatal(err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		view, err := tl.TargetView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := tl.Active().Mapping.Evaluate(tl.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if view.String() != fresh.Distinct().String() {
			t.Fatalf("%s: view has %d rows, fresh evaluation %d\nview:\n%v\nfresh:\n%v",
				when, view.Len(), fresh.Len(), view, fresh)
		}
	}
	check("after undo")
	if err := tl.ApplyRows(ctx, "Children", rowVals("013", "Omar", "9", "102", "103", "d1"), false); err != nil {
		t.Fatal(err)
	}
	check("after the next edit")
}
