package workspace

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"clio/internal/core"
	"clio/internal/expr"
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

// undoPastDelete runs the op sequence that used to leave a stale
// illustration: walk on from the mapped tool, delete Children row 001
// (dropping the pre-walk workspace's D(G) in the undo history), undo.
func undoPastDelete(t *testing.T, tl *Tool) {
	t.Helper()
	ctx := context.Background()
	if err := tl.Walk(ctx, "Children", "Parents"); err != nil {
		t.Fatal(err)
	}
	if err := tl.ApplyRows(ctx, "Children", rowVals("001", "Ann", "9", "100", "101", "d1"), true); err != nil {
		t.Fatal(err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
}

// Undoing past a row edit reactivates a workspace whose illustration
// predates the edit. Activation must bring it up to date: no example
// may show the deleted row, and the illustration must be sufficient
// for the edited data.
func TestUndoPastRowEditRefreshesIllustration(t *testing.T) {
	tl := mappedTool(t, paperdb.Instance())
	undoPastDelete(t, tl)
	il := tl.Active().Illustration
	for _, e := range il.Examples {
		if e.Assoc.Get("Children.ID").Equal(value.String("001")) {
			t.Fatalf("illustration still shows deleted row 001:\n%v", il)
		}
	}
	missing, err := il.MissingRequirements(tl.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("illustration after undo misses %v:\n%v", missing, il)
	}
}

// The refreshed illustration is part of the session state: the live
// tool, a tool replaying the same ops, and a tool restored from a
// snapshot taken between the edit and the undo (which carries the
// dropped D(G) as absent) then undoing, all render the same
// illustration and view.
func TestUndoPastRowEditLiveReplayedResurrected(t *testing.T) {
	ctx := context.Background()
	render := func(tl *Tool) string {
		t.Helper()
		view, err := tl.TargetView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tl.Active().Illustration.String() + view.String()
	}
	live := mappedTool(t, paperdb.Instance())
	undoPastDelete(t, live)
	want := render(live)

	if got := render(func() *Tool { tl := mappedTool(t, paperdb.Instance()); undoPastDelete(t, tl); return tl }()); got != want {
		t.Fatalf("replayed differs:\n%s--- live\n%s", got, want)
	}

	// Resurrect: snapshot after the edit, restore into a tool whose
	// instance has the edit applied, then undo.
	src := mappedTool(t, paperdb.Instance())
	if err := src.Walk(ctx, "Children", "Parents"); err != nil {
		t.Fatal(err)
	}
	if err := src.ApplyRows(ctx, "Children", rowVals("001", "Ann", "9", "100", "101", "d1"), true); err != nil {
		t.Fatal(err)
	}
	st, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	in := paperdb.Instance()
	children := in.Relation("Children")
	children.RemoveAt(children.IndexOf(relation.NewTuple(children.Scheme(), rowVals("001", "Ann", "9", "100", "101", "d1")...)))
	restored := New(ctx, in, paperdb.Kids(), false)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := restored.Undo(); err != nil {
		t.Fatal(err)
	}
	if got := render(restored); got != want {
		t.Fatalf("resurrected differs:\n%s--- live\n%s", got, want)
	}
}

// Activating a workspace whose D(G) a row edit dropped refreshes it in
// the current set only. An undo snapshot that holds the same
// workspace (a filter keeps the other alternatives) still restores the
// state it recorded, as the same snapshot serialized before the
// activation would.
func TestActivationLeavesUndoHistoryAsRecorded(t *testing.T) {
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	if err := tl.Walk(ctx, "Children", "Parents"); err != nil {
		t.Fatal(err)
	}
	ws := tl.Workspaces()
	if len(ws) < 2 {
		t.Fatalf("walk gave %d alternatives, want at least 2", len(ws))
	}
	other := ws[1].ID
	if err := tl.AddSourceFilter(ctx, expr.MustParse("Children.ID IS NOT NULL")); err != nil {
		t.Fatal(err)
	}
	if err := tl.ApplyRows(ctx, "Children", rowVals("001", "Ann", "9", "100", "101", "d1"), true); err != nil {
		t.Fatal(err)
	}
	history := func() string {
		t.Helper()
		st, err := tl.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(st.History)
		if err != nil {
			t.Fatal(err)
		}
		return string(doc)
	}
	before := history()
	if err := tl.Use(other); err != nil {
		t.Fatal(err)
	}
	if after := history(); after != before {
		t.Fatalf("activation changed the undo history:\n%s\n--- recorded\n%s", after, before)
	}
	for _, e := range tl.Active().Illustration.Examples {
		if e.Assoc.Get("Children.ID").Equal(value.String("001")) {
			t.Fatalf("activated illustration still shows deleted row 001:\n%v", tl.Active().Illustration)
		}
	}
}

// A failed row edit is not journaled, so it must leave no trace a
// later op can observe: undo snapshots keep their D(G) caches, and
// undoing afterwards shows the same illustration as a session that
// never attempted the edit.
func TestFailedRowEditKeepsUndoHistory(t *testing.T) {
	ctx := context.Background()
	walked := func() *Tool {
		tl := mappedTool(t, paperdb.Instance())
		if err := tl.Walk(ctx, "Children", "Parents"); err != nil {
			t.Fatal(err)
		}
		return tl
	}
	history := func(tl *Tool) string {
		t.Helper()
		st, err := tl.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(st.History)
		if err != nil {
			t.Fatal(err)
		}
		return string(doc)
	}
	tl := walked()
	before := history(tl)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := tl.ApplyRows(cctx, "Children", rowVals("001", "Ann", "9", "100", "101", "d1"), true); err == nil {
		t.Fatal("row edit under a cancelled context succeeded")
	}
	if after := history(tl); after != before {
		t.Fatalf("failed edit changed the undo history:\n%s\n--- before\n%s", after, before)
	}
	ref := walked()
	for _, x := range []*Tool{tl, ref} {
		if err := x.Undo(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tl.Active().Illustration.String(), ref.Active().Illustration.String(); got != want {
		t.Fatalf("undo after a failed edit shows:\n%s--- never attempted\n%s", got, want)
	}
}

// Confirm keeps the active workspace in both the current set and the
// undo snapshot. Row edits then maintain it in the current set only,
// so undoing after several edits shows the same illustration whether
// the session ran live or was restored from a snapshot taken after the
// confirm: either way the restored workspace's illustration is evolved
// once, from what the snapshot recorded, onto the edited data.
func TestUndoPastConfirmAfterRowEditsLiveResurrected(t *testing.T) {
	ctx := context.Background()
	editUndo := func(tl *Tool) string {
		t.Helper()
		// A parent with no phone and no child opens a new coverage
		// class, so the first edit adds a fresh example; the second
		// edit then inherits it.
		if err := tl.ApplyRows(ctx, "Parents", rowVals("300", "Acme", "1 Bay St", "50000"), false); err != nil {
			t.Fatal(err)
		}
		if err := tl.ApplyRows(ctx, "Children", rowVals("015", "Yan", "6", "100", "101", "d1"), false); err != nil {
			t.Fatal(err)
		}
		if err := tl.Undo(); err != nil {
			t.Fatal(err)
		}
		view, err := tl.TargetView(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tl.Active().Illustration.String() + view.String()
	}
	live := mappedTool(t, paperdb.Instance())
	if err := live.Confirm(); err != nil {
		t.Fatal(err)
	}
	st, err := live.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	want := editUndo(live)

	restored := New(ctx, paperdb.Instance(), paperdb.Kids(), false)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := editUndo(restored); got != want {
		t.Fatalf("resurrected differs:\n%s--- live\n%s", got, want)
	}
}
