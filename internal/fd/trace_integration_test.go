// External test package: paperdb depends on core which depends on fd,
// so the integration test lives outside package fd to break the cycle.
package fd_test

import (
	"context"
	"slices"
	"testing"

	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
)

// withCollector enables tracing into a fresh CollectExporter for the
// duration of one test, restoring the disabled default afterwards.
func withCollector(t *testing.T) *obs.CollectExporter {
	t.Helper()
	col := &obs.CollectExporter{}
	obs.SetEnabled(true)
	obs.SetExporter(col)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.SetExporter(nil)
	})
	return col
}

// TestComputeSpanTreeFigure8 runs fd.Compute on the Figure 6 query
// graph (whose D(G) is the paper's Figure 8) and asserts the emitted
// span tree: a tree-shaped graph must route through the outer-join
// algorithm, with the node count and result size recorded as
// attributes.
func TestComputeSpanTreeFigure8(t *testing.T) {
	col := withCollector(t)
	m := paperdb.Figure6G()
	in := paperdb.Instance()

	dg, err := fd.Compute(context.Background(), m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}

	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d trace roots, want 1", len(roots))
	}
	root := roots[0]
	names := obs.SpanNames(root)
	for _, want := range []string{"fd.compute", "fd.compute/fd.outer_join"} {
		if !slices.Contains(names, want) {
			t.Errorf("span tree misses %q; have %v", want, names)
		}
	}
	attrs := obs.AttrMap(root)
	if attrs["algo"] != "outer_join" {
		t.Errorf("algo attr = %v, want outer_join", attrs["algo"])
	}
	if attrs["nodes"] != int64(3) {
		t.Errorf("nodes attr = %v, want 3", attrs["nodes"])
	}
	oj := root.Children[0]
	if got := obs.AttrMap(oj)["tuples"]; got != int64(dg.Len()) {
		t.Errorf("outer_join tuples attr = %v, want %d", got, dg.Len())
	}
}

// TestEngineSpanTreeEndToEnd drives the full illustration pipeline on
// the Figure 8 scenario under a root span and asserts the engine
// layers nest in the trace: illustration selection above D(G)
// computation above the join kernels' parent spans.
func TestEngineSpanTreeEndToEnd(t *testing.T) {
	col := withCollector(t)
	m := paperdb.Figure6G()
	in := paperdb.Instance()

	ctx, span := obs.StartSpan(context.Background(), "test.session")
	il, err := core.SufficientIllustration(ctx, m, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(il.Examples) == 0 {
		t.Fatal("empty sufficient illustration")
	}
	span.End()

	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d trace roots, want 1", len(roots))
	}
	names := obs.SpanNames(roots[0])
	for _, want := range []string{
		"test.session/core.sufficient_illustration",
		"test.session/core.sufficient_illustration/core.all_examples",
		"test.session/core.sufficient_illustration/core.all_examples/fd.compute",
		"test.session/core.sufficient_illustration/core.all_examples/fd.compute/fd.outer_join",
		"test.session/core.sufficient_illustration/core.all_examples/core.examples_on",
		"test.session/core.sufficient_illustration/core.select_sufficient",
	} {
		if !slices.Contains(names, want) {
			t.Errorf("span tree misses %q; have %v", want, names)
		}
	}
}

// TestComputeSubgraphAlgoSpan checks the algorithm-decision attribute
// on a cyclic graph, which cannot use the outer-join tree: in memory
// it runs the lattice build, under a spill directory the subgraph
// algorithm.
func TestComputeSubgraphAlgoSpan(t *testing.T) {
	prev := fd.SetCacheCapacity(0)
	defer fd.SetCacheCapacity(prev)
	col := withCollector(t)
	m := paperdb.Figure6G()
	// Close the cycle Children—PhoneDir so Compute must fall back to
	// subgraph enumeration.
	m.Graph.MustAddEdge("Children", "PhoneDir", expr.Equals("Children.mid", "PhoneDir.ID"))

	for _, c := range []struct {
		budget fd.Budget
		algo   string
		span   string
	}{
		{fd.Budget{}, "lattice", "fd.compute/fd.materialize"},
		{fd.Budget{MaxRows: 1 << 40, SpillDir: t.TempDir()}, "subgraph", "fd.compute/fd.full_disjunction"},
	} {
		col.Reset()
		ctx := fd.WithBudget(context.Background(), c.budget)
		if _, err := fd.Compute(ctx, m.Graph, paperdb.Instance()); err != nil {
			t.Fatal(err)
		}
		roots := col.Roots()
		if len(roots) != 1 {
			t.Fatalf("got %d trace roots, want 1", len(roots))
		}
		attrs := obs.AttrMap(roots[0])
		if attrs["algo"] != c.algo {
			t.Errorf("algo attr = %v, want %s", attrs["algo"], c.algo)
		}
		names := obs.SpanNames(roots[0])
		if !slices.Contains(names, c.span) {
			t.Errorf("span tree misses %s; have %v", c.span, names)
		}
	}
}
