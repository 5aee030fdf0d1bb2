package core_test

import (
	"context"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/expr"
	"clio/internal/fd"
)

// Selection classifies each association by signature without building
// strings, so EvolveOnDG's allocations per association are those of
// building its example (the transformed target tuple), plus a
// constant per signature class and per old example.
func TestEvolveOnDGAllocsPerAssociation(t *testing.T) {
	c := datagen.Chain(datagen.ChainSpec{Relations: 4, Rows: 400, KeySpace: 200, MatchProb: 0.85, Seed: 42})
	m := c.Mapping
	m.TargetFilters = []expr.Expr{expr.MustParse("T.vR0 IS NOT NULL")}
	ctx := context.Background()
	dg, err := fd.Compute(ctx, c.Graph, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Len() < 1000 {
		t.Fatalf("fixture has %d associations, want >= 1000", dg.Len())
	}
	old, err := core.SufficientIllustration(ctx, m, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.EvolveOnDG(ctx, old, m, c.Instance, dg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 1.5
	if per := allocs / float64(dg.Len()); per > bound {
		t.Errorf("EvolveOnDG allocated %.0f times for %d associations (%.2f each, bound %.1f)",
			allocs, dg.Len(), per, bound)
	}
}
