package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"clio/internal/expr"
)

// paperG builds the paper's Figure 6 graph G: Children—Parents—PhoneDir.
func paperG() *QueryGraph {
	g := New()
	g.MustAddNode("Children", "Children")
	g.MustAddNode("Parents", "Parents")
	g.MustAddNode("PhoneDir", "PhoneDir")
	g.MustAddEdge("Children", "Parents", expr.Equals("Children.mid", "Parents.ID"))
	g.MustAddEdge("Parents", "PhoneDir", expr.Equals("Parents.ID", "PhoneDir.ID"))
	return g
}

func TestNodeAndEdgeBasics(t *testing.T) {
	g := paperG()
	if g.NodeCount() != 3 {
		t.Errorf("NodeCount = %d", g.NodeCount())
	}
	if !g.HasNode("Parents") || g.HasNode("SBPS") {
		t.Error("HasNode wrong")
	}
	n, ok := g.Node("Children")
	if !ok || n.Base != "Children" {
		t.Error("Node lookup wrong")
	}
	e, ok := g.EdgeBetween("PhoneDir", "Parents")
	if !ok || e.Label() != "Parents.ID = PhoneDir.ID" {
		t.Errorf("EdgeBetween = %v, %v", e, ok)
	}
	if _, ok := g.EdgeBetween("Children", "PhoneDir"); ok {
		t.Error("phantom edge")
	}
	if got := g.Neighbors("Parents"); len(got) != 2 {
		t.Errorf("Neighbors = %v", got)
	}
	if o, ok := e.Other("Parents"); !ok || o != "PhoneDir" {
		t.Error("Other wrong")
	}
	if _, ok := e.Other("Children"); ok {
		t.Error("Other on non-endpoint should fail")
	}
}

func TestAddNodeConflicts(t *testing.T) {
	g := New()
	g.MustAddNode("Parents2", "Parents")
	if err := g.AddNode("Parents2", "Parents"); err != nil {
		t.Errorf("re-adding same node should be no-op: %v", err)
	}
	if err := g.AddNode("Parents2", "Children"); err == nil {
		t.Error("rebinding node base should fail")
	}
	if g.NodeCount() != 1 {
		t.Errorf("NodeCount = %d", g.NodeCount())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	if err := g.AddEdge("A", "A", expr.MustParse("TRUE")); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddEdge("A", "Z", expr.MustParse("TRUE")); err == nil {
		t.Error("unknown endpoint should fail")
	}
	if err := g.AddEdge("Z", "A", expr.MustParse("TRUE")); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestAddEdgeConjoins(t *testing.T) {
	g := New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	g.MustAddEdge("A", "B", expr.Equals("A.x", "B.x"))
	g.MustAddEdge("B", "A", expr.Equals("A.y", "B.y"))
	if len(g.Edges()) != 1 {
		t.Fatalf("edges = %d, want 1 (conjoined)", len(g.Edges()))
	}
	label := g.Edges()[0].Label()
	if !strings.Contains(label, "A.x = B.x") || !strings.Contains(label, "A.y = B.y") {
		t.Errorf("conjoined label = %q", label)
	}
}

func TestConnectedAndTree(t *testing.T) {
	g := paperG()
	if !g.Connected() || !g.IsTree() {
		t.Error("paper graph should be a connected tree")
	}
	if !New().Connected() {
		t.Error("empty graph is connected by convention")
	}
	if New().IsTree() {
		t.Error("empty graph is not a tree")
	}
	// Disconnect it.
	g2 := paperG()
	g2.MustAddNode("SBPS", "SBPS")
	if g2.Connected() {
		t.Error("isolated node should disconnect")
	}
	if g2.IsTree() {
		t.Error("disconnected is not a tree")
	}
	// A cycle is connected but not a tree.
	g3 := paperG()
	g3.MustAddEdge("Children", "PhoneDir", expr.Equals("Children.ID", "PhoneDir.ID"))
	if !g3.Connected() || g3.IsTree() {
		t.Error("cycle classification wrong")
	}
}

func TestInduced(t *testing.T) {
	g := paperG()
	sub := g.Induced([]string{"Children", "Parents"})
	if sub.NodeCount() != 2 || len(sub.Edges()) != 1 {
		t.Errorf("induced wrong: %v", sub)
	}
	// Non-adjacent pair: no edges.
	sub2 := g.Induced([]string{"Children", "PhoneDir"})
	if len(sub2.Edges()) != 0 || sub2.Connected() {
		t.Error("non-adjacent induced subgraph should be disconnected")
	}
}

func TestUnion(t *testing.T) {
	g := paperG()
	h := New()
	h.MustAddNode("Children", "Children")
	h.MustAddNode("SBPS", "SBPS")
	h.MustAddEdge("Children", "SBPS", expr.Equals("Children.ID", "SBPS.ID"))
	u, err := g.Union(h)
	if err != nil {
		t.Fatal(err)
	}
	if u.NodeCount() != 4 || len(u.Edges()) != 3 {
		t.Errorf("union wrong: %v", u)
	}
	// Original graphs untouched.
	if g.NodeCount() != 3 {
		t.Error("union mutated receiver")
	}
	// Same edge, same label: deduplicated.
	u2, err := g.Union(g)
	if err != nil || len(u2.Edges()) != 2 {
		t.Errorf("self-union: %v, %v", u2, err)
	}
	// Conflicting label: error.
	h2 := New()
	h2.MustAddNode("Children", "Children")
	h2.MustAddNode("Parents", "Parents")
	h2.MustAddEdge("Children", "Parents", expr.Equals("Children.fid", "Parents.ID"))
	if _, err := g.Union(h2); err == nil {
		t.Error("relabeling union should fail")
	}
	// Conflicting base: error.
	h3 := New()
	h3.MustAddNode("Parents", "PhoneDir")
	if _, err := g.Union(h3); err == nil {
		t.Error("base-conflicting union should fail")
	}
}

func TestConnectedSubsetsPaperExample(t *testing.T) {
	// Example 3.12: the induced connected subgraphs of G are
	// {C}, {P}, {Ph}, {C,P}, {P,Ph}, {C,P,Ph} — note {C,Ph} is absent.
	g := paperG()
	got := g.ConnectedSubsets()
	want := [][]string{
		{"Children"}, {"Parents"}, {"PhoneDir"},
		{"Children", "Parents"}, {"Parents", "PhoneDir"},
		{"Children", "Parents", "PhoneDir"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			t.Errorf("subset %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConnectedSubsetsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		g := New()
		for i := 0; i < n; i++ {
			g.MustAddNode(letters[i], letters[i])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.MustAddEdge(letters[i], letters[j], expr.Equals(letters[i]+".x", letters[j]+".x"))
				}
			}
		}
		fast := g.ConnectedSubsets()
		slow := g.ConnectedSubsetsNaive()
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: fast %d vs naive %d subsets\n%v\nfast: %v\nslow: %v",
				trial, len(fast), len(slow), g, fast, slow)
		}
		for i := range fast {
			if strings.Join(fast[i], ",") != strings.Join(slow[i], ",") {
				t.Fatalf("trial %d: subset %d differs: %v vs %v", trial, i, fast[i], slow[i])
			}
		}
	}
}

func TestConnectedSubsetsChainCount(t *testing.T) {
	// A chain of n nodes has n(n+1)/2 connected induced subgraphs.
	for n := 1; n <= 10; n++ {
		g := New()
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('A' + i))
			g.MustAddNode(names[i], names[i])
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(names[i-1], names[i], expr.Equals(names[i-1]+".x", names[i]+".x"))
		}
		want := n * (n + 1) / 2
		if got := len(g.ConnectedSubsets()); got != want {
			t.Errorf("chain %d: %d subsets, want %d", n, got, want)
		}
	}
}

func TestSpanningTreeOrder(t *testing.T) {
	g := paperG()
	order, edges, ok := g.SpanningTreeOrder()
	if !ok || len(order) != 3 || order[0] != "Children" {
		t.Fatalf("SpanningTreeOrder = %v, %v", order, ok)
	}
	// Each non-root connects to an earlier node.
	seen := map[string]bool{order[0]: true}
	for i := 1; i < len(order); i++ {
		e := edges[i]
		o, okO := e.Other(order[i])
		if !okO || !seen[o] {
			t.Errorf("tree edge %d (%v) does not connect to earlier node", i, e)
		}
		seen[order[i]] = true
	}
	// Disconnected graph: not ok.
	g.MustAddNode("SBPS", "SBPS")
	if _, _, ok := g.SpanningTreeOrder(); ok {
		t.Error("disconnected graph should not have spanning order")
	}
	if _, _, ok := New().SpanningTreeOrder(); ok {
		t.Error("empty graph should not have spanning order")
	}
}

func TestSimplePaths(t *testing.T) {
	// Diamond: A-B, A-C, B-D, C-D.
	g := New()
	for _, n := range []string{"A", "B", "C", "D"} {
		g.MustAddNode(n, n)
	}
	g.MustAddEdge("A", "B", expr.Equals("A.x", "B.x"))
	g.MustAddEdge("A", "C", expr.Equals("A.x", "C.x"))
	g.MustAddEdge("B", "D", expr.Equals("B.x", "D.x"))
	g.MustAddEdge("C", "D", expr.Equals("C.x", "D.x"))
	paths := g.SimplePaths("A", "D", 4)
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	// Bounded length.
	if got := g.SimplePaths("A", "D", 1); len(got) != 0 {
		t.Errorf("bounded paths = %v", got)
	}
	if got := g.SimplePaths("A", "A", 3); len(got) != 1 || len(got[0]) != 1 {
		t.Errorf("trivial path = %v", got)
	}
	if got := g.SimplePaths("A", "Z", 3); got != nil {
		t.Errorf("unknown endpoint paths = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperG()
	c := g.Clone()
	c.MustAddNode("SBPS", "SBPS")
	c.MustAddEdge("Children", "SBPS", expr.Equals("Children.ID", "SBPS.ID"))
	if g.NodeCount() != 3 || len(g.Edges()) != 2 {
		t.Error("clone mutated original")
	}
}

func TestStringRendering(t *testing.T) {
	s := paperG().String()
	for _, want := range []string{"Children", "Parents -- PhoneDir", "Children.mid = Parents.ID"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestConnectedSubsetsStarCount(t *testing.T) {
	// A star with center X and n leaves has 2^n (subsets containing X,
	// any leaf combination) + n (single leaves) ... minus the empty
	// set: 2^n + n singleton-leaf sets, where the center-containing
	// count includes {X} itself.
	for n := 1; n <= 8; n++ {
		g := New()
		g.MustAddNode("X", "X")
		for i := 0; i < n; i++ {
			leaf := string(rune('a' + i))
			g.MustAddNode(leaf, leaf)
			g.MustAddEdge("X", leaf, expr.Equals("X.k", leaf+".k"))
		}
		want := (1 << n) + n
		if got := len(g.ConnectedSubsets()); got != want {
			t.Errorf("star %d: %d subsets, want %d", n, got, want)
		}
	}
}

func TestSimplePathsProperty(t *testing.T) {
	// Property: every reported path is simple, respects the bound, and
	// consecutive nodes are adjacent.
	rng := rand.New(rand.NewSource(17))
	letters := []string{"A", "B", "C", "D", "E", "F"}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		g := New()
		for i := 0; i < n; i++ {
			g.MustAddNode(letters[i], letters[i])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.MustAddEdge(letters[i], letters[j], expr.Equals(letters[i]+".x", letters[j]+".x"))
				}
			}
		}
		bound := 1 + rng.Intn(4)
		paths := g.SimplePaths(letters[0], letters[n-1], bound)
		for _, p := range paths {
			if len(p)-1 > bound {
				t.Fatalf("path %v exceeds bound %d", p, bound)
			}
			seen := map[string]bool{}
			for i, node := range p {
				if seen[node] {
					t.Fatalf("path %v revisits %s", p, node)
				}
				seen[node] = true
				if i > 0 {
					if _, ok := g.EdgeBetween(p[i-1], node); !ok {
						t.Fatalf("path %v uses missing edge %s—%s", p, p[i-1], node)
					}
				}
			}
		}
	}
}

func TestInducedPreservesConjoinedLabels(t *testing.T) {
	g := New()
	g.MustAddNode("A", "A")
	g.MustAddNode("B", "B")
	g.MustAddEdge("A", "B", expr.Equals("A.x", "B.x"))
	g.MustAddEdge("A", "B", expr.Equals("A.y", "B.y"))
	sub := g.Induced([]string{"A", "B"})
	e, ok := sub.EdgeBetween("A", "B")
	if !ok || !strings.Contains(e.Label(), "A.y = B.y") {
		t.Errorf("conjoined label lost: %v", e)
	}
}

// ConnectedSubsetsAtMost answers the full enumeration up to the limit
// and gives up past it.
func TestConnectedSubsetsAtMost(t *testing.T) {
	g := New()
	for _, n := range []string{"A", "B", "C", "D"} {
		g.MustAddNode(n, n)
	}
	g.MustAddEdge("A", "B", expr.Equals("A.k", "B.k"))
	g.MustAddEdge("B", "C", expr.Equals("B.k", "C.k"))
	g.MustAddEdge("C", "D", expr.Equals("C.k", "D.k"))
	all := g.ConnectedSubsets()
	if len(all) != 10 {
		t.Fatalf("chain of 4 has %d connected subsets, want 10", len(all))
	}
	got, ok := g.ConnectedSubsetsAtMost(10)
	if !ok || fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("at the limit: ok=%v, %v, want %v", ok, got, all)
	}
	if got, ok := g.ConnectedSubsetsAtMost(9); ok || got != nil {
		t.Fatalf("past the limit: ok=%v, %v", ok, got)
	}
}
