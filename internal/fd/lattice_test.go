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

// latticeCase generates an adversarial instance for the lattice build:
// a chain, tree or cycle over k relations R0..R(k-1) of (k, v), whose
// rows include nulls, an all-null row, a row strictly subsumed by
// another of its relation, and a duplicate row. One edge carries no
// equality conjunct (Ra.v < Rb.v), so its attach scans. With tolerant
// set, one more edge admits an all-null row of its far endpoint
// (Ra.k IS NOT NULL AND Rb.v IS NULL — strong, but true beside an
// all-null Rb row), which sends the rows it extends to classification.
func latticeCase(rng *rand.Rand, shape string, k int, tolerant bool) (*graph.QueryGraph, *relation.Instance) {
	sch := schema.NewDatabase()
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		sch.MustAddRelation(schema.NewRelation(names[i],
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	cell := func(dom int) value.Value {
		if rng.Float64() < 0.2 {
			return value.Null
		}
		return value.Int(int64(rng.Intn(dom)))
	}
	for _, name := range names {
		r := in.NewRelationFor(name)
		for j := 2 + rng.Intn(4); j > 0; j-- {
			r.AddValues(cell(3), cell(4))
		}
		r.AddValues(value.Null, value.Null)
		key := value.Int(int64(rng.Intn(3)))
		r.AddValues(key, value.Int(int64(rng.Intn(4))))
		r.AddValues(key, value.Null) // strictly subsumed by the row above
		r.Add(r.At(rng.Intn(r.Len())))
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode(names[0], names[0])
	for i := 1; i < k; i++ {
		g.MustAddNode(names[i], names[i])
		parent := names[i-1]
		if shape == "tree" {
			parent = names[rng.Intn(i)]
		}
		g.MustAddEdge(parent, names[i], expr.Equals(parent+".k", names[i]+".k"))
	}
	if shape == "cycle" {
		g.MustAddEdge(names[0], names[k-1], expr.Equals(names[0]+".k", names[k-1]+".k"))
	}
	// Rewrite one or two edge predicates; AddEdge on an existing pair
	// would conjoin, so rebuild the graph edge by edge.
	edges := g.Edges()
	scan := rng.Intn(len(edges))
	tol := -1
	if tolerant && len(edges) > 1 {
		tol = (scan + 1) % len(edges)
	}
	out := graph.New()
	for _, name := range names {
		out.MustAddNode(name, name)
	}
	for i, e := range edges {
		pred := e.Pred
		switch i {
		case scan:
			pred = expr.MustParse(e.A + ".v < " + e.B + ".v")
		case tol:
			pred = expr.MustParse(e.A + ".k IS NOT NULL AND " + e.B + ".v IS NULL")
		}
		out.MustAddEdge(e.A, e.B, pred)
	}
	return out, in
}

// setEntries renders every distinct live tuple of a SubsumeSet with
// its count and maximal flag.
func setEntries(s *relation.SubsumeSet) map[string]string {
	out := map[string]string{}
	s.Each(func(t relation.Tuple, count int, maximal bool) {
		out[t.Key()] = fmt.Sprintf("count=%d maximal=%v", count, maximal)
	})
	return out
}

// insertAllReference builds the subsumption state the lattice build
// must equal: every association of every connected subset, computed by
// its own join plan, padded by name and Inserted for lazy
// classification.
func insertAllReference(t *testing.T, g *graph.QueryGraph, in *relation.Instance) map[string]string {
	t.Helper()
	ctx := context.Background()
	s, err := Scheme(g, in)
	if err != nil {
		t.Fatal(err)
	}
	ref := relation.NewSubsumeSet(s)
	for _, sub := range g.ConnectedSubsets() {
		f, err := FullAssociations(ctx, g, in, sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range f.Tuples() {
			ref.Insert(a.PadTo(s))
		}
	}
	return setEntries(ref)
}

// requireSameEntries compares two setEntries renderings.
func requireSameEntries(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct associations, reference has %d", label, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: association %q has %q, reference %q", label, k, g, w)
		}
	}
}

// Oracle for the lattice build: on generated chains, trees and cycles
// with nulls, all-null rows, strictly subsumed and duplicate base
// rows, a scanning attach and (every other trial) an edge that admits
// all-null rows, every SubsumeSet entry carries the count and maximal
// flag that Insert-all plus lazy classification gives, and Rel renders
// FullDisjunction's bytes.
func TestLatticeBuildMatchesInsertAllReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1414))
	shapes := []string{"chain", "tree", "cycle"}
	var lineage, classified int64
	for trial := 0; trial < 36; trial++ {
		shape := shapes[trial%len(shapes)]
		g, in := latticeCase(rng, shape, 3+rng.Intn(2), trial%2 == 1)
		m, err := NewMaterialized(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (%s)", trial, shape)
		requireSameEntries(t, label, setEntries(m.set), insertAllReference(t, g, in))
		want, err := FullDisjunction(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDG(t, m.Rel(), want.Sorted())

		b, err := buildLattice(ctx, g, in, m.scheme, relation.NewSubsumeSet(m.scheme))
		if err != nil {
			t.Fatal(err)
		}
		lineage += b.lineage
		classified += b.classified
	}
	if lineage == 0 || classified == 0 {
		t.Fatalf("vacuous: %d rows loaded by lineage, %d classified", lineage, classified)
	}
}

// After a lattice build, a random insert/delete sequence maintained by
// delta renders what recomputation renders, byte for byte, and leaves
// the subsumption state Insert-all would build over the edited
// instance — which checks every promotion of an entry the build
// loaded non-maximal.
func TestLatticeBuildDeltaEqualsRecompute(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1732))
	shapes := []string{"chain", "tree", "cycle"}
	deltas := 0
	for trial := 0; trial < 18; trial++ {
		shape := shapes[trial%len(shapes)]
		g, in := latticeCase(rng, shape, 3+rng.Intn(2), trial%2 == 0)
		mat, err := NewMaterialized(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			base := g.Nodes()[rng.Intn(g.NodeCount())]
			r := in.Relation(base)
			del := r.Len() > 0 && rng.Intn(2) == 0
			var tp relation.Tuple
			switch {
			case del:
				tp = r.RemoveAt(rng.Intn(r.Len()))
			case rng.Intn(3) == 0:
				r.Add(r.At(rng.Intn(r.Len()))) // a duplicate
				tp = r.At(r.Len() - 1)
			default:
				vals := []value.Value{value.Int(int64(rng.Intn(3))), value.Int(int64(rng.Intn(4)))}
				vals[rng.Intn(2)] = value.Null
				if rng.Intn(2) == 0 {
					vals[1] = value.Int(int64(rng.Intn(4)))
				}
				r.AddValues(vals...)
				tp = r.At(r.Len() - 1)
			}
			d, mat2, mode, err := MaintainRows(ctx, mat, g, in, base, tp, del)
			if err != nil {
				t.Fatalf("trial %d step %d: MaintainRows: %v", trial, step, err)
			}
			mat = mat2
			if mode == "delta" {
				deltas++
			}
			want, err := FullDisjunction(ctx, g, in)
			if err != nil {
				t.Fatal(err)
			}
			requireSameDG(t, d, want.Sorted())
			label := fmt.Sprintf("trial %d (%s) step %d (%s)", trial, shape, step, mode)
			requireSameEntries(t, label, setEntries(mat.set), insertAllReference(t, g, in))
		}
	}
	if deltas == 0 {
		t.Fatal("no edit took the delta path")
	}
}

// A graph with more connected subsets than the delta path maintains
// (MaxDeltaSubsets) gets no materialization: MaintainRows answers with
// Compute, keeps nothing, and reports a recompute.
func TestMaintainRowsOverSubsetLimitComputes(t *testing.T) {
	ctx := context.Background()
	prev := SetCacheCapacity(0)
	defer SetCacheCapacity(prev)
	// A hub with 8 leaves: 2^8 subsets hold the hub, 8 more are single
	// leaves — 264, just over the limit.
	sch := schema.NewDatabase()
	names := []string{"H"}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("L%d", i))
	}
	for _, n := range names {
		sch.MustAddRelation(schema.NewRelation(n,
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	g := graph.New()
	for i, n := range names {
		r := in.NewRelationFor(n)
		r.AddValues(value.Int(1), value.Int(int64(i)))
		r.AddValues(value.Int(int64(2+i%2)), value.Int(int64(10+i)))
		in.MustAdd(r)
		g.MustAddNode(n, n)
		if i > 0 {
			g.MustAddEdge("H", n, expr.Equals("H.k", n+".k"))
		}
	}
	if n := len(g.ConnectedSubsets()); n != MaxDeltaSubsets+8 {
		t.Fatalf("fixture has %d connected subsets, want %d", n, MaxDeltaSubsets+8)
	}
	h := in.Relation("H")
	var mat *Materialized
	for step := 0; step < 2; step++ {
		h.AddValues(value.Int(int64(step)), value.Int(99))
		tp := h.At(h.Len() - 1)
		d, mat2, mode, err := MaintainRows(ctx, mat, g, in, "H", tp, false)
		if err != nil {
			t.Fatal(err)
		}
		if mode != "recompute" || mat2 != nil {
			t.Fatalf("step %d: mode %q with materialization %v, want recompute and none", step, mode, mat2 != nil)
		}
		want, err := Compute(ctx, g, in)
		if err != nil {
			t.Fatal(err)
		}
		if d.String() != want.String() {
			t.Fatalf("step %d: maintained D(G) renders differently from Compute:\n%v\nvs\n%v", step, d, want)
		}
		mat = mat2
	}
}

// A null-free association whose only extension is by an all-null row
// can still be strictly subsumed further out: here A's row extends
// only through B's all-null row (A–B admits it), and that association
// extends again through C (B–C admits it too), so A's row is not
// maximal although its one extension pads to itself. The build must
// not load it maximal on the strength of its lineage.
func TestLatticeBuildAllNullExtensionIsClassified(t *testing.T) {
	ctx := context.Background()
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B", "C"} {
		sch.MustAddRelation(schema.NewRelation(n,
			schema.Attribute{Name: "k", Type: value.KindInt},
			schema.Attribute{Name: "v", Type: value.KindInt},
		))
	}
	in := relation.NewInstance(sch)
	a, b, c := in.NewRelationFor("A"), in.NewRelationFor("B"), in.NewRelationFor("C")
	a.AddValues(value.Int(1), value.Int(1))
	b.AddValues(value.Null, value.Null)
	b.AddValues(value.Int(2), value.Int(2))
	c.AddValues(value.Int(3), value.Int(3))
	for _, r := range []*relation.Relation{a, b, c} {
		in.MustAdd(r)
	}
	g := graph.New()
	for _, n := range []string{"A", "B", "C"} {
		g.MustAddNode(n, n)
	}
	g.MustAddEdge("A", "B", expr.MustParse("A.k IS NOT NULL AND B.v IS NULL"))
	g.MustAddEdge("B", "C", expr.MustParse("B.v IS NULL AND C.k IS NOT NULL"))
	m, err := NewMaterialized(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, "all-null extension", setEntries(m.set), insertAllReference(t, g, in))
	want, err := FullDisjunctionNaive(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDG(t, m.Rel(), want.Sorted())
}
