package fd

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// testInstance models the relevant slice of the paper's Figure 1:
// Children linked to Parents by mid, Parents linked to PhoneDir by ID.
// Parent 205 has a phone but no children; parent 103 (a father) has no
// phone; every mother has a phone.
func testInstance() *relation.Instance {
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("Children",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "mid", Type: value.KindString},
	))
	sch.MustAddRelation(schema.NewRelation("Parents",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "affiliation", Type: value.KindString},
	))
	sch.MustAddRelation(schema.NewRelation("PhoneDir",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "number", Type: value.KindString},
	))
	in := relation.NewInstance(sch)
	c := in.NewRelationFor("Children")
	c.AddRow("001", "Ann", "100")
	c.AddRow("002", "Maya", "102")
	in.MustAdd(c)
	p := in.NewRelationFor("Parents")
	p.AddRow("100", "IBM")
	p.AddRow("102", "Acta")
	p.AddRow("103", "IBM") // no phone, no children via mid
	p.AddRow("205", "Sun") // phone, no children
	in.MustAdd(p)
	ph := in.NewRelationFor("PhoneDir")
	ph.AddRow("100", "555-0100")
	ph.AddRow("102", "555-0102")
	ph.AddRow("205", "555-0205")
	in.MustAdd(ph)
	return in
}

func paperGraph() *graph.QueryGraph {
	g := graph.New()
	g.MustAddNode("Children", "Children")
	g.MustAddNode("Parents", "Parents")
	g.MustAddNode("PhoneDir", "PhoneDir")
	g.MustAddEdge("Children", "Parents", expr.Equals("Children.mid", "Parents.ID"))
	g.MustAddEdge("Parents", "PhoneDir", expr.Equals("Parents.ID", "PhoneDir.ID"))
	return g
}

func TestScheme(t *testing.T) {
	in := testInstance()
	g := paperGraph()
	s, err := Scheme(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 3+2+2 {
		t.Errorf("arity = %d", s.Arity())
	}
	if !s.Has("Children.ID") || !s.Has("PhoneDir.number") {
		t.Error("scheme attributes missing")
	}
	if _, err := Scheme(graph.New(), in); err == nil {
		t.Error("empty graph should error")
	}
}

func TestFullAssociations(t *testing.T) {
	in := testInstance()
	g := paperGraph()
	// {Children, Parents}: both children join their mothers.
	f, err := FullAssociations(context.Background(), g, in, []string{"Children", "Parents"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Errorf("F(C,P) len = %d:\n%v", f.Len(), f)
	}
	// {Children, PhoneDir}: disconnected, error.
	if _, err := FullAssociations(context.Background(), g, in, []string{"Children", "PhoneDir"}); err == nil {
		t.Error("disconnected subset should error")
	}
	// Full graph.
	f3, err := FullAssociations(context.Background(), g, in, []string{"Children", "Parents", "PhoneDir"})
	if err != nil {
		t.Fatal(err)
	}
	if f3.Len() != 2 {
		t.Errorf("F(C,P,Ph) len = %d:\n%v", f3.Len(), f3)
	}
}

func TestFullDisjunctionPaperShape(t *testing.T) {
	in := testInstance()
	g := paperGraph()
	d, err := FullDisjunction(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Expected D(G):
	//  - 2 full associations (Ann, Maya with mothers and phones)
	//  - parent 205 with phone, no child  → coverage P+Ph
	//  - parent 103 alone                 → coverage P
	// Nothing with coverage C (all children have mothers) and nothing
	// with coverage C+P (all mothers have phones).
	part, err := Partition(d, g, in)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]int{
		"Children+Parents+PhoneDir": 2,
		"Parents+PhoneDir":          1,
		"Parents":                   1,
	}
	if len(part) != len(wantCounts) {
		t.Fatalf("categories = %v", keys(part))
	}
	for k, n := range wantCounts {
		if len(part[k]) != n {
			t.Errorf("category %s has %d tuples, want %d", k, len(part[k]), n)
		}
	}
	if d.Len() != 4 {
		t.Errorf("|D(G)| = %d, want 4:\n%v", d.Len(), d)
	}
}

func keys(m map[string][]relation.Tuple) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestThreeAlgorithmsAgreeOnPaperData(t *testing.T) {
	in := testInstance()
	g := paperGraph()
	a, err := FullDisjunction(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FullDisjunctionNaive(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FullDisjunctionOuterJoin(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualSet(b) {
		t.Errorf("subgraph vs naive mismatch:\n%v\n%v", a, b)
	}
	if !a.EqualSet(c) {
		t.Errorf("subgraph vs outer-join mismatch:\n%v\n%v", a, c)
	}
}

func TestCoverageAndTag(t *testing.T) {
	in := testInstance()
	g := paperGraph()
	d, err := FullDisjunction(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	abbrev := map[string]string{"Children": "C", "Parents": "P", "PhoneDir": "Ph"}
	tags := map[string]int{}
	for _, tp := range d.Tuples() {
		cov, err := Coverage(tp, g, in)
		if err != nil {
			t.Fatal(err)
		}
		tags[Tag(cov, abbrev)]++
	}
	if tags["CPPh"] != 2 || tags["PPh"] != 1 || tags["P"] != 1 {
		t.Errorf("tags = %v", tags)
	}
	if Tag([]string{"Zebra"}, abbrev) != "Zebra" {
		t.Error("Tag fallback wrong")
	}
	if CoverageKey([]string{"b", "a"}) != "a+b" {
		t.Error("CoverageKey wrong")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	in := testInstance()
	g := graph.New()
	g.MustAddNode("Parents", "Parents")
	d, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Errorf("single-node D(G) len = %d", d.Len())
	}
}

func TestRelationCopies(t *testing.T) {
	// Children joined to two copies of Parents (mother and father),
	// as in the paper's Section 2 mapping. Tree with 3 nodes.
	sch := schema.NewDatabase()
	sch.MustAddRelation(schema.NewRelation("Children",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "mid", Type: value.KindString},
		schema.Attribute{Name: "fid", Type: value.KindString},
	))
	sch.MustAddRelation(schema.NewRelation("Parents",
		schema.Attribute{Name: "ID", Type: value.KindString},
		schema.Attribute{Name: "aff", Type: value.KindString},
	))
	in := relation.NewInstance(sch)
	c := in.NewRelationFor("Children")
	c.AddRow("001", "100", "101")
	c.AddRow("002", "100", "-")
	in.MustAdd(c)
	p := in.NewRelationFor("Parents")
	p.AddRow("100", "IBM")
	p.AddRow("101", "UofT")
	in.MustAdd(p)

	g := graph.New()
	g.MustAddNode("Children", "Children")
	g.MustAddNode("Parents", "Parents")
	g.MustAddNode("Parents2", "Parents")
	g.MustAddEdge("Children", "Parents", expr.Equals("Children.fid", "Parents.ID"))
	g.MustAddEdge("Children", "Parents2", expr.Equals("Children.mid", "Parents2.ID"))

	d, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(d, g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Child 001 covers all three; child 002 covers Children+Parents2
	// (no father). Parent 101 appears alone in the Parents copy; both
	// parents appear alone in the Parents2 copy only if unmatched —
	// 100 is matched, 101 is unmatched in Parents2 too.
	if len(part["Children+Parents+Parents2"]) != 1 {
		t.Errorf("full coverage = %d, want 1. parts: %v", len(part["Children+Parents+Parents2"]), keys(part))
	}
	if len(part["Children+Parents2"]) != 1 {
		t.Errorf("C+P2 coverage = %d, want 1", len(part["Children+Parents2"]))
	}
	// Unmatched copies: Parents 100 never a father → "Parents"; 101
	// never a mother → "Parents2".
	if len(part["Parents"]) != 1 || len(part["Parents2"]) != 1 {
		t.Errorf("unmatched copies wrong: %v", keys(part))
	}
	// Differential check vs naive.
	nv, err := FullDisjunctionNaive(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.EqualSet(nv) {
		t.Errorf("copies: fast vs naive mismatch:\n%v\n%v", d, nv)
	}
}

func TestErrors(t *testing.T) {
	in := testInstance()
	g := graph.New()
	if _, err := FullDisjunction(context.Background(), g, in); err == nil {
		t.Error("empty graph should error")
	}
	if _, err := FullDisjunctionNaive(context.Background(), g, in); err == nil {
		t.Error("empty graph should error (naive)")
	}
	g.MustAddNode("Children", "Children")
	g.MustAddNode("Parents", "Parents") // disconnected
	if _, err := FullDisjunction(context.Background(), g, in); err == nil {
		t.Error("disconnected graph should error")
	}
	if _, err := FullDisjunctionOuterJoin(context.Background(), g, in); err == nil {
		t.Error("non-tree should error in outer-join algorithm")
	}
	// Unknown base relation.
	g2 := graph.New()
	g2.MustAddNode("Nope", "Nope")
	if _, err := FullDisjunction(context.Background(), g2, in); err == nil {
		t.Error("unknown base should error")
	}
	if _, err := Compute(context.Background(), g2, in); err == nil {
		t.Error("unknown base should error in Compute")
	}
}

// randomTreeCase builds a random tree query graph over k relations
// with random data, for differential testing.
func randomTreeCase(rng *rand.Rand, k, rows int) (*graph.QueryGraph, *relation.Instance) {
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
			r.AddValues(value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(100))))
		}
		in.MustAdd(r)
	}
	g := graph.New()
	g.MustAddNode(names[0], names[0])
	for i := 1; i < k; i++ {
		g.MustAddNode(names[i], names[i])
		parent := names[rng.Intn(i)]
		g.MustAddEdge(parent, names[i], expr.Equals(parent+".k", names[i]+".k"))
	}
	return g, in
}

// randomCyclicCase builds a random connected cyclic query graph over k
// relations with random data: a random tree plus 1..2 extra edges.
func randomCyclicCase(rng *rand.Rand, k, rows int) (*graph.QueryGraph, *relation.Instance) {
	g, in := randomTreeCase(rng, k, rows)
	// Add extra edges until the graph is cyclic; for k ≥ 3 a tree
	// always has a missing pair, so this terminates.
	names := g.Nodes()
	extra := 1 + rng.Intn(2)
	for added := 0; added < extra; {
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		if a == b {
			continue
		}
		if _, dup := g.EdgeBetween(a, b); dup {
			if g.IsTree() {
				continue // keep looking for a cycle-closing edge
			}
			break // already cyclic; saturated pair ends the loop
		}
		g.MustAddEdge(a, b, expr.Equals(a+".k", b+".k"))
		added++
	}
	return g, in
}

// Compute must route every in-memory cyclic graph to the lattice
// build, whatever its subset count, keep trees on the outer-join
// chain, and record the choice in the algo span attribute.
func TestComputeRoutesCyclicToLattice(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	col := &obs.CollectExporter{}
	obs.SetExporter(col)
	defer func() {
		obs.SetExporter(nil)
		obs.SetEnabled(wasEnabled)
	}()

	algoOf := func(g *graph.QueryGraph, in *relation.Instance) string {
		col.Reset()
		if _, err := Compute(context.Background(), g, in); err != nil {
			t.Fatal(err)
		}
		for _, root := range col.Roots() {
			if root.Name == "fd.compute" {
				if a, ok := obs.AttrMap(root)["algo"]; ok {
					return a.(string)
				}
			}
		}
		t.Fatal("no fd.compute span with algo attribute exported")
		return ""
	}

	// A 4-cycle (13 connected subsets) and a triangle (7).
	rng := rand.New(rand.NewSource(7))
	g, in := randomTreeCase(rng, 4, 2)
	names := g.Nodes()
	for i := range names {
		a, b := names[i], names[(i+1)%len(names)]
		if _, ok := g.EdgeBetween(a, b); !ok {
			g.MustAddEdge(a, b, expr.Equals(a+".k", b+".k"))
		}
	}
	if g.IsTree() {
		t.Fatal("test graph is unexpectedly a tree")
	}
	if algo := algoOf(g, in); algo != "lattice" {
		t.Errorf("4-cycle routed to %q, want lattice", algo)
	}
	tri, triIn := randomTreeCase(rng, 3, 2)
	for _, p := range [][2]string{{"R0", "R1"}, {"R0", "R2"}, {"R1", "R2"}} {
		if _, ok := tri.EdgeBetween(p[0], p[1]); !ok {
			tri.MustAddEdge(p[0], p[1], expr.Equals(p[0]+".k", p[1]+".k"))
		}
	}
	if tri.IsTree() {
		t.Fatal("triangle is unexpectedly a tree")
	}
	if algo := algoOf(tri, triIn); algo != "lattice" {
		t.Errorf("triangle routed to %q, want lattice", algo)
	}

	// Trees keep the outer-join fast path.
	tg, tin := randomTreeCase(rng, 3, 2)
	if algo := algoOf(tg, tin); algo != "outer_join" {
		t.Errorf("tree routed to %q, want outer_join", algo)
	}
}

// All D(G) algorithms must notice a cancelled context and return its
// error instead of burning CPU to completion.
func TestCancellationStopsAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g, in := randomCyclicCase(rng, 4, 3)
	tg, tin := randomTreeCase(rng, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		run  func() error
	}{
		{"FullDisjunction", func() error { _, err := FullDisjunction(ctx, g, in); return err }},
		{"FullDisjunctionNaive", func() error { _, err := FullDisjunctionNaive(ctx, g, in); return err }},
		{"FullDisjunctionOuterJoin", func() error { _, err := FullDisjunctionOuterJoin(ctx, tg, tin); return err }},
		{"NewMaterialized", func() error { _, err := NewMaterialized(ctx, g, in); return err }},
		{"Compute", func() error { _, err := Compute(ctx, g, in); return err }},
	}
	for _, c := range cases {
		if err := c.run(); err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
	}
}

// Cancelling mid-flight must abort a cyclic Compute (the lattice
// build) with the context's error or let it finish cleanly.
func TestComputeCancellationMidFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, in := randomCyclicCase(rng, 5, 40)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := computeUncached(ctx, g, in)
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && err != context.Canceled {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

func TestTreeAlgorithmsAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(3) // 2..4 relations
		rows := 1 + rng.Intn(4)
		g, in := randomTreeCase(rng, k, rows)
		a, err := FullDisjunction(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FullDisjunctionOuterJoin(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualSet(b) {
			t.Fatalf("trial %d: subgraph vs outer-join mismatch on\n%v\nsubgraph:\n%v\nouterjoin:\n%v",
				trial, g, a.Sorted(), b.Sorted())
		}
		c, err := FullDisjunctionNaive(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		if !a.EqualSet(c) {
			t.Fatalf("trial %d: subgraph vs naive mismatch", trial)
		}
	}
}

// Property: D(G) is an antichain under strict subsumption, and every
// full association of the whole graph appears in it.
func TestFullDisjunctionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		g, in := randomTreeCase(rng, 3, 3)
		d, err := Compute(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		for i, t1 := range d.Tuples() {
			for j, t2 := range d.Tuples() {
				if i != j && t1.StrictlySubsumes(t2) {
					t.Fatalf("D(G) contains subsumed pair")
				}
			}
		}
		full, err := FullAssociations(context.Background(), g, in, g.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		for _, ft := range full.Tuples() {
			if !d.Contains(ft.Project(d.Scheme())) {
				t.Fatalf("full association missing from D(G): %v", ft)
			}
		}
	}
}

func TestCyclicGraph(t *testing.T) {
	// Triangle A—B—C—A; Compute must fall back to subgraph join and
	// agree with naive.
	sch := schema.NewDatabase()
	for _, n := range []string{"A", "B", "C"} {
		sch.MustAddRelation(schema.NewRelation(n,
			schema.Attribute{Name: "k", Type: value.KindInt}))
	}
	in := relation.NewInstance(sch)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []string{"A", "B", "C"} {
		r := in.NewRelationFor(n)
		for j := 0; j < 4; j++ {
			r.AddValues(value.Int(int64(rng.Intn(3))))
		}
		in.MustAdd(r.Distinct())
	}
	g := graph.New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	g.MustAddNode("C", "C")
	g.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	g.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	g.MustAddEdge("C", "A", expr.Equals("C.k", "A.k"))
	got, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullDisjunctionNaive(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualSet(want) {
		t.Errorf("cyclic: Compute vs naive mismatch:\n%v\n%v", got, want)
	}
}
