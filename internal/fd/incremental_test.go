package fd

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

func TestExtendLeafMatchesRecompute(t *testing.T) {
	// Randomized: build a tree, compute D(G) incrementally leaf by
	// leaf, and compare with the from-scratch computation at every
	// step.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		g, in := randomTreeCase(rng, k, 1+rng.Intn(5))
		nodes := g.Nodes()

		// Grow from the first node following a spanning order.
		order, edges, ok := g.SpanningTreeOrder()
		if !ok {
			t.Fatal("tree should have spanning order")
		}
		cur := graph.New()
		n0, _ := g.Node(order[0])
		cur.MustAddNode(n0.Name, n0.Base)
		dg, err := Compute(context.Background(), cur, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			next := cur.Clone()
			n, _ := g.Node(order[i])
			next.MustAddNode(n.Name, n.Base)
			e := edges[i]
			next.MustAddEdge(e.A, e.B, e.Pred)

			inc, err := ExtendLeaf(context.Background(), dg, cur, next, in)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			ref, err := Compute(context.Background(), next, in)
			if err != nil {
				t.Fatal(err)
			}
			if !inc.EqualSet(ref) {
				t.Fatalf("trial %d step %d: incremental differs\ninc:\n%v\nref:\n%v\ngraph:\n%v",
					trial, i, inc.Sorted(), ref.Sorted(), next)
			}
			cur, dg = next, inc
		}
		_ = nodes
	}
}

func TestExtendLeafErrors(t *testing.T) {
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B", "C"} {
		sch.MustAddRelation(schema.NewRelation(n, schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	for _, n := range []string{"A", "B", "C"} {
		r := in.NewRelationFor(n)
		r.AddRow("1")
		in.MustAdd(r)
	}
	gA := graph.New()
	gA.MustAddNode("A", "A")
	dgA, err := Compute(context.Background(), gA, in)
	if err != nil {
		t.Fatal(err)
	}

	// Two-node jump: not a single-leaf extension.
	gABC := graph.New()
	gABC.MustAddNode("A", "A")
	gABC.MustAddNode("B", "B")
	gABC.MustAddNode("C", "C")
	gABC.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	gABC.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	if _, err := ExtendLeaf(context.Background(), dgA, gA, gABC, in); err == nil {
		t.Error("two-node extension should fail")
	}

	// Edge relabel: not an extension.
	gAB1 := graph.New()
	gAB1.MustAddNode("A", "A")
	gAB1.MustAddNode("B", "B")
	gAB1.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	dgAB, err := Compute(context.Background(), gAB1, in)
	if err != nil {
		t.Fatal(err)
	}
	gAB2C := graph.New()
	gAB2C.MustAddNode("A", "A")
	gAB2C.MustAddNode("B", "B")
	gAB2C.MustAddNode("C", "C")
	gAB2C.MustAddEdge("A", "B", expr.MustParse("A.k = B.k AND A.k = 1"))
	gAB2C.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	if _, err := ExtendLeaf(context.Background(), dgAB, gAB1, gAB2C, in); err == nil {
		t.Error("relabeled extension should fail")
	}

	// Non-leaf addition (cycle): fails.
	gTri := graph.New()
	gTri.MustAddNode("A", "A")
	gTri.MustAddNode("B", "B")
	gTri.MustAddNode("C", "C")
	gTri.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	gTri.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	gTri.MustAddEdge("A", "C", expr.Equals("A.k", "C.k"))
	if _, err := ExtendLeaf(context.Background(), dgAB, gAB1, gTri, in); err == nil {
		t.Error("cycle-creating extension should fail")
	}
}

func TestComputeIncrementalFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g, in := randomTreeCase(rng, 3, 3)
	// nil previous state: plain compute.
	d1, err := ComputeIncremental(context.Background(), nil, nil, g, in)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.EqualSet(d2) {
		t.Error("fallback differs from Compute")
	}
	// Non-extension previous state: falls back silently.
	other := graph.New()
	other.MustAddNode("R0", "R0")
	dgOther, err := Compute(context.Background(), other, in)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := ComputeIncremental(context.Background(), dgOther, other, g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.EqualSet(d2) {
		t.Error("fallback path differs")
	}
}

func BenchmarkExtendLeafVsRecompute(b *testing.B) {
	// Documented here for locality; the E7 harness reports the same.
	g, in := lowFanoutTreeCase(4, 200)
	nodes := g.Nodes()
	old := g.Induced(nodes[:3])
	if !old.Connected() {
		b.Skip("unlucky induced subgraph")
	}
	dg, err := Compute(context.Background(), old, in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExtendLeaf(context.Background(), dg, old, g, in); err != nil {
				b.Skip("not a leaf extension under this seed")
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compute(context.Background(), g, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lowFanoutTreeCase builds a chain with wide key space (fan-out ~2),
// suitable for benchmarks.
func lowFanoutTreeCase(k, rows int) (*graph.QueryGraph, *relation.Instance) {
	rng := rand.New(rand.NewSource(8))
	sch := schema.NewDatabase()
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("R%d", i)
		sch.MustAddRelation(schema.NewRelation(names[i],
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	for i := 0; i < k; i++ {
		r := in.NewRelationFor(names[i])
		for j := 0; j < rows; j++ {
			r.AddValues(value.Int(int64(rng.Intn(rows/2))), value.Int(int64(j)))
		}
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode(names[0], names[0])
	for i := 1; i < k; i++ {
		g.MustAddNode(names[i], names[i])
		g.MustAddEdge(names[i-1], names[i], expr.Equals(names[i-1]+".k", names[i]+".k"))
	}
	return g, in
}
