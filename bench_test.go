package clio_test

// testing.B benchmark families, one per experiment in EXPERIMENTS.md
// (E1..E8) plus the paper-database microbenchmarks. cmd/cliobench
// runs the same sweeps with markdown output; these integrate with
// `go test -bench`.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// --- E1: full disjunction algorithms ---

func chainCase(n, rows int) datagen.Case {
	return datagen.Chain(datagen.ChainSpec{
		Relations: n, Rows: rows, KeySpace: rows / 2, MatchProb: 0.85, Seed: 42,
	})
}

func BenchmarkFullDisjunctionSubgraph(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		c := chainCase(n, 100)
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunction(context.Background(), c.Graph, c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullDisjunctionOuterJoin(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		c := chainCase(n, 100)
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunctionOuterJoin(context.Background(), c.Graph, c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: subsumption removal ---

func subsumptionInput(rows int) *relation.Relation {
	s := relation.NewScheme("R.a", "R.b", "R.c", "R.d", "R.e", "R.f")
	r := relation.New("R", s)
	seed := uint64(1)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for i := 0; i < rows; i++ {
		vals := make([]value.Value, 6)
		for j := range vals {
			if next(3) == 0 {
				vals[j] = value.Null
			} else {
				vals[j] = value.Int(int64(next(4)))
			}
		}
		r.AddValues(vals...)
	}
	return r
}

func BenchmarkMinimumUnionNaive(b *testing.B) {
	for _, n := range []int{200, 800} {
		r := subsumptionInput(n).Distinct()
		b.Run(fmt.Sprintf("rows%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relation.RemoveSubsumedNaive(r)
			}
		})
	}
}

func BenchmarkMinimumUnionPartitioned(b *testing.B) {
	for _, n := range []int{200, 800} {
		r := subsumptionInput(n)
		b.Run(fmt.Sprintf("rows%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relation.RemoveSubsumed(r)
			}
		})
	}
}

// --- E3: sufficient illustration selection ---

func BenchmarkIllustrationSelect(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.TargetFilters = []expr.Expr{expr.MustParse("T.vR0 IS NOT NULL")}
		dg, err := fd.Compute(context.Background(), c.Graph, c.Instance)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				full, err := core.ExamplesOn(context.Background(), c.Mapping, c.Instance, dg)
				if err != nil {
					b.Fatal(err)
				}
				core.SelectSufficient(context.Background(), c.Mapping, full)
			}
		})
	}
}

// --- E4: walk enumeration ---

func BenchmarkDataWalkPaths(b *testing.B) {
	for _, rels := range []int{10, 20} {
		k := datagen.Knowledge(datagen.KnowledgeSpec{Relations: rels, EdgesPerNode: 3, Seed: 9})
		end := fmt.Sprintf("R%d", rels-1)
		b.Run(fmt.Sprintf("rels%d", rels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Paths("R0", end, 3)
			}
		})
	}
}

func BenchmarkDataWalkOperator(b *testing.B) {
	in := paperdb.Instance()
	k := discovery.BuildKnowledge(context.Background(), in, true, 1)
	m := paperdb.Figure6G()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DataWalk(context.Background(), m, k, "Children", "SBPS", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: chase lookup ---

func BenchmarkChaseIndexed(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	ix := discovery.BuildValueIndex(context.Background(), in)
	v := value.Int(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Occurrences(v)
	}
}

func BenchmarkChaseScan(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	v := value.Int(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.OccurrencesScan(in, v)
	}
}

func BenchmarkChaseOperator(b *testing.B) {
	in := paperdb.Instance()
	ix := discovery.BuildValueIndex(context.Background(), in)
	m := paperdb.Figure6G()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DataChase(context.Background(), m, ix, "Children.ID", value.String("002")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: mapping evaluation ---

func BenchmarkMappingEvalDG(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.SourceFilters = []expr.Expr{expr.MustParse("R0.k IS NOT NULL")}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Mapping.Evaluate(c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMappingEvalLeftJoin(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.SourceFilters = []expr.Expr{expr.MustParse("R0.k IS NOT NULL")}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Mapping.EvaluateViaLeftJoins("R0", c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: evolution ---

func BenchmarkEvolution(b *testing.B) {
	full := chainCase(4, 200)
	old := full.Mapping.Clone()
	old.Graph = full.Graph.Induced(full.Graph.Nodes()[:3])
	old.Corrs = old.Corrs[:3]
	oldDG, err := fd.Compute(context.Background(), old.Graph, full.Instance)
	if err != nil {
		b.Fatal(err)
	}
	oldIll, err := core.SufficientIllustration(context.Background(), old, full.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvolveFrom(context.Background(), oldIll, oldDG, full.Mapping, full.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolveOnDGRowEdit times what a row edit costs the
// illustration: evolving a sufficient illustration onto the D(G)
// after one insert, over about 3k associations.
func BenchmarkEvolveOnDGRowEdit(b *testing.B) {
	ctx := context.Background()
	c := chainCase(4, 450)
	il, err := core.SufficientIllustration(ctx, c.Mapping, c.Instance)
	if err != nil {
		b.Fatal(err)
	}
	r0 := c.Instance.Relation("R0")
	row := relation.NewTuple(r0.Scheme(), value.Int(1), value.Int(-1))
	r0.Add(row)
	dg, _, _, err := fd.MaintainRows(ctx, nil, c.Graph, c.Instance, "R0", row, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvolveOnDG(ctx, il, c.Mapping, c.Instance, dg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dg.Len()), "associations")
}

// ordersStar builds a five-node tree shaped like the end-to-end
// benchmark's final mapping: Orders as the hub of Customers,
// OrderLines and Shipments, and Products hanging off OrderLines, over
// string keys (200 customers, 1000 orders with 1–5 lines each, 70%
// of them shipped, 100 products).
func ordersStar() (*graph.QueryGraph, *relation.Instance) {
	rels := map[string][]string{
		"Customers":  {"cid", "name", "country"},
		"Orders":     {"oid", "cid", "day"},
		"OrderLines": {"lid", "oid", "pid", "qty"},
		"Products":   {"pid", "title", "price"},
		"Shipments":  {"sid", "oid", "carrier"},
	}
	sch := schema.NewDatabase()
	for _, name := range []string{"Customers", "Orders", "OrderLines", "Products", "Shipments"} {
		var attrs []schema.Attribute
		for _, a := range rels[name] {
			attrs = append(attrs, schema.Attribute{Name: a, Type: value.KindString})
		}
		sch.MustAddRelation(schema.NewRelation(name, attrs...))
	}
	in := relation.NewInstance(sch)
	rng := rand.New(rand.NewSource(7))
	str := func(prefix string, i int) value.Value { return value.String(prefix + strconv.Itoa(i)) }
	cust, prod := in.NewRelationFor("Customers"), in.NewRelationFor("Products")
	for i := 1; i <= 200; i++ {
		cust.AddValues(str("c", i), str("name", rng.Intn(120)), str("country", rng.Intn(5)))
	}
	for i := 1; i <= 100; i++ {
		prod.AddValues(str("p", i), str("title", i), str("price", rng.Intn(200)))
	}
	orders, lines, ships := in.NewRelationFor("Orders"), in.NewRelationFor("OrderLines"), in.NewRelationFor("Shipments")
	lid := 0
	for i := 1; i <= 1000; i++ {
		orders.AddValues(str("o", i), str("c", 1+rng.Intn(199)), str("day", rng.Intn(336)))
		for n := 1 + i%5; n > 0; n-- {
			lid++
			lines.AddValues(str("l", lid), str("o", i), str("p", 1+rng.Intn(99)), str("", 1+rng.Intn(5)))
		}
		if i%10 < 7 {
			ships.AddValues(str("s", i), str("o", i), str("carrier", rng.Intn(4)))
		}
	}
	for _, r := range []*relation.Relation{cust, orders, lines, prod, ships} {
		in.MustAdd(r)
	}
	g := graph.New()
	for _, name := range []string{"Orders", "Customers", "OrderLines", "Shipments", "Products"} {
		g.MustAddNode(name, name)
	}
	g.MustAddEdge("Orders", "Customers", expr.Equals("Orders.cid", "Customers.cid"))
	g.MustAddEdge("Orders", "OrderLines", expr.Equals("Orders.oid", "OrderLines.oid"))
	g.MustAddEdge("Orders", "Shipments", expr.Equals("Orders.oid", "Shipments.oid"))
	g.MustAddEdge("OrderLines", "Products", expr.Equals("OrderLines.pid", "Products.pid"))
	return g, in
}

// BenchmarkNewMaterialized times what a session's first row edit
// builds: the delta-maintainable D(G) of the five-node orders tree and
// its first rendering.
func BenchmarkNewMaterialized(b *testing.B) {
	ctx := context.Background()
	g, in := ordersStar()
	var rows int
	for i := 0; i < b.N; i++ {
		m, err := fd.NewMaterialized(ctx, g, in)
		if err != nil {
			b.Fatal(err)
		}
		rows = m.Rel().Len()
	}
	b.ReportMetric(float64(rows), "dg_rows")
}

// BenchmarkComputeCyclic times a cold D(G) of a cyclic graph: the
// orders tree plus the transitive OrderLines.oid = Shipments.oid edge
// that mining finds, with the memo cache off so every iteration
// computes.
func BenchmarkComputeCyclic(b *testing.B) {
	ctx := context.Background()
	g, in := ordersStar()
	g.MustAddEdge("OrderLines", "Shipments", expr.Equals("OrderLines.oid", "Shipments.oid"))
	prev := fd.SetCacheCapacity(0)
	defer fd.SetCacheCapacity(prev)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fd.Compute(ctx, g, in)
		if err != nil {
			b.Fatal(err)
		}
		rows = d.Len()
	}
	b.ReportMetric(float64(rows), "dg_rows")
}

func BenchmarkEvolutionRecompute(b *testing.B) {
	full := chainCase(4, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SufficientIllustration(context.Background(), full.Mapping, full.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: discovery ---

func BenchmarkDiscoveryINDs(b *testing.B) {
	for _, rels := range []int{4, 8} {
		in := datagen.WideInstance(rels, 4, 500, 126, 5)
		b.Run(fmt.Sprintf("rels%d", rels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.DiscoverINDs(context.Background(), in, 0.95)
			}
		})
	}
}

func BenchmarkDiscoveryValueIndex(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.BuildValueIndex(context.Background(), in)
	}
}

// --- Paper database end-to-end ---

func BenchmarkPaperSection2Evaluate(b *testing.B) {
	in := paperdb.Instance()
	m := paperdb.Section2Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperSufficientIllustration(b *testing.B) {
	in := paperdb.Instance()
	m := paperdb.Example315Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SufficientIllustration(context.Background(), m, in); err != nil {
			b.Fatal(err)
		}
	}
}
