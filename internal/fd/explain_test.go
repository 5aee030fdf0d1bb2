package fd_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// sumOpRows walks a span tree and sums the "rows" attributes of the
// algebra operator spans (names prefixed "op.").
func sumOpRows(s *obs.SpanData) int64 {
	var sum int64
	if strings.HasPrefix(s.Name, "op.") {
		if v, ok := obs.AttrMap(s)["rows"].(int64); ok {
			sum += v
		}
	}
	for _, c := range s.Children {
		sum += sumOpRows(c)
	}
	return sum
}

// TestExplainFigure8RowsMatchExecution explains the Figure-8 D(G) and
// checks the per-operator rows in the returned tree sum to exactly
// what an independently traced fd.Compute execution reports.
func TestExplainFigure8RowsMatchExecution(t *testing.T) {
	col := withCollector(t)
	prevCap := fd.SetCacheCapacity(8)
	fd.InvalidateCache()
	t.Cleanup(func() {
		fd.SetCacheCapacity(prevCap)
		fd.InvalidateCache()
	})
	m := paperdb.Figure6G()
	in := paperdb.Instance()

	// Reference execution: trace a real Compute run under a root span
	// so the operator spans are emitted.
	ctx, span := obs.StartSpan(context.Background(), "test.ref")
	dg, err := fd.Compute(ctx, m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d reference roots, want 1", len(roots))
	}
	wantRows := sumOpRows(roots[0])
	if wantRows == 0 {
		t.Fatal("reference execution recorded no operator rows")
	}

	res, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != "outer_join" {
		t.Errorf("algo = %q, want outer_join", res.Algo)
	}
	if res.Cache != "hit" {
		t.Errorf("cache = %q, want hit (Compute above stored it)", res.Cache)
	}
	if !res.IsTree || res.Nodes != 3 {
		t.Errorf("is_tree/nodes = %v/%d, want true/3", res.IsTree, res.Nodes)
	}
	if res.Tuples != dg.Len() {
		t.Errorf("tuples = %d, want %d", res.Tuples, dg.Len())
	}
	if res.Root == nil || res.Root.Name != "fd.compute" {
		t.Fatalf("explain root = %+v, want fd.compute span", res.Root)
	}
	if got := sumOpRows(res.Root); got != wantRows {
		t.Errorf("explain operator rows sum = %d, want %d", got, wantRows)
	}

	// On a cold cache the same explain reports a miss and warms it.
	fd.InvalidateCache()
	res2, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != "miss" {
		t.Errorf("cold cache = %q, want miss", res2.Cache)
	}
	res3, err := fd.ExplainCompute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cache != "hit" {
		t.Errorf("explain did not warm the cache: %q, want hit", res3.Cache)
	}
}

// ring4 builds a 4-node cyclic query graph (13 connected subsets, past
// the parallel threshold) over tiny single-column relations.
func ring4() (*graph.QueryGraph, *relation.Instance) {
	names := []string{"A", "B", "C", "D"}
	sch := schema.NewDatabase()
	for _, n := range names {
		sch.MustAddRelation(schema.NewRelation(n,
			schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for i, n := range names {
		r := in.NewRelationFor(n)
		r.AddValues(value.Int(int64(i % 2)))
		in.MustAdd(r)
	}
	g := graph.New()
	for _, n := range names {
		g.MustAddNode(n, n)
	}
	g.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	g.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	g.MustAddEdge("C", "D", expr.Equals("C.k", "D.k"))
	g.MustAddEdge("A", "D", expr.Equals("A.k", "D.k"))
	return g, in
}

// TestLatticeSpansShareTraceTree runs Compute on a cyclic graph,
// which routes to the lattice build, under a root span stamped with a
// trace ID, and asserts the retained trace holds the build's span
// under fd.compute in the same single tree.
func TestLatticeSpansShareTraceTree(t *testing.T) {
	buf := obs.NewTraceBuffer(4, nil)
	obs.SetEnabled(true)
	obs.SetExporter(buf)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.SetExporter(nil)
	})
	g, in := ring4()

	id := obs.NewTraceID()
	ctx := obs.WithTraceID(context.Background(), id)
	ctx, span := obs.StartSpan(ctx, "test.request")
	span.SetStr("trace_id", id)
	if _, err := fd.Compute(ctx, g, in); err != nil {
		t.Fatal(err)
	}
	span.End()

	tr := buf.Get(id)
	if tr == nil {
		t.Fatalf("trace %s not retained; have %v", id, buf.Recent())
	}
	names := obs.SpanNames(tr.Root)
	if !slices.Contains(names, "test.request/fd.compute/fd.materialize") {
		t.Errorf("retained tree has no fd.materialize span under fd.compute: %v", names)
	}
	if algo := obs.AttrMap(tr.Root.Children[0])["algo"]; algo != "lattice" {
		t.Errorf("algo = %v, want lattice", algo)
	}
}
