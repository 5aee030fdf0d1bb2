package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b := genSource(7), genSource(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sources")
	}
	if reflect.DeepEqual(a.tables, genSource(8).tables) {
		t.Fatal("different seeds produced identical sources")
	}
	rels := []string{"OrderLines", "Orders"}
	if !reflect.DeepEqual(genEdits(a, rels, 50), genEdits(b, rels, 50)) {
		t.Fatal("same seed produced different edit streams")
	}
	want := map[string]int{"Customers": nCustomers, "Orders": nOrders, "Products": nProducts, "Reviews": nReviews}
	for rel, n := range want {
		if got := a.rowCount(rel); got != n {
			t.Errorf("%s has %d rows, want %d", rel, got, n)
		}
	}
	if n := a.rowCount("OrderLines"); n != 3*nOrders {
		t.Errorf("OrderLines has %d rows, want %d", n, 3*nOrders)
	}
	if n := a.rowCount("Shipments"); n != int(shipRate*nOrders) {
		t.Errorf("Shipments has %d rows, want %d", n, int(shipRate*nOrders))
	}
}

// Mining must find exactly the intended joins, and the chase value must
// occur in Reviews, whatever the seed.
func TestGeneratorMinesExpectedJoins(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		src := genSource(seed)
		dir := filepath.Join(t.TempDir(), fmt.Sprint(seed))
		if err := src.writeCSV(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := openReference(ctx, dir, src.chaseTitle, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Every delete in an edit stream names a row the stream inserted
// earlier and has not deleted yet.
func TestEditsDeleteOnlyLiveInserts(t *testing.T) {
	src := genSource(3)
	live := map[string]bool{}
	deletes := 0
	for _, e := range genEdits(src, []string{"OrderLines", "Orders", "Reviews"}, 500) {
		key := e.Relation + fmt.Sprint(e.Values)
		if e.Delete {
			if !live[key] {
				t.Fatalf("delete of a row that is not live: %v", e)
			}
			delete(live, key)
			deletes++
			continue
		}
		live[key] = true
	}
	if deletes < 100 || deletes > 200 {
		t.Errorf("%d deletes in 500 edits, want about 30%%", deletes)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {90, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should report 0")
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90", got)
	}
	if got := tail(xs[:10]); got != 0 {
		t.Errorf("tail of 10 samples = %v, want 0", got)
	}
}

// Every ratio the traced run reports comes with its numerator and base.
func TestRatiosReportTheirBases(t *testing.T) {
	tr := newTracer()
	for k, v := range map[string]float64{
		"fd.extend": 3, "fd.full": 1, "fd.maintain_delta": 9, "fd.maintain_recompute": 1,
		"core.examples_built": 200, "core.examples_kept": 10, "core.evolve_edits": 4,
		"core.alternatives": 12, "core.alternative_ops": 6, "algebra.probes": 50, "algebra.out_tuples": 25,
	} {
		tr.counts[k] = v
	}
	before := map[string]int64{"fd.cache.hits": 1, "fd.cache.misses": 1, "spill.prefetch_hits": 0, "spill.partitions": 0}
	after := map[string]int64{"fd.cache.hits": 4, "fd.cache.misses": 2, "spill.prefetch_hits": 2, "spill.partitions": 8}
	r := &runner{}
	m := report{}
	r.layerMetrics(m, tr, nil, before, after, &windowStats{}, recovery{})
	for _, c := range []struct {
		ratio       string
		want        float64
		num, base   string
		numV, baseV float64
	}{
		{"fd.extend_ratio", 0.75, "fd.extend_count", "fd.full_count", 3, 1},
		{"fd.delta_ratio", 0.9, "fd.delta_count", "fd.rebuild_count", 9, 1},
		{"fd.cache_hit_ratio", 0.75, "fd.cache_hits", "fd.cache_lookups", 3, 4},
		{"core.examples_kept_ratio", 0.05, "core.examples_kept", "core.examples_built", 10, 200},
		{"core.alternatives_per_op", 2, "core.alternatives", "core.alternative_ops", 12, 6},
		{"algebra.probes_per_out_tuple", 2, "algebra.probes", "algebra.out_tuples", 50, 25},
		{"spill.prefetch_hit_ratio", 0.25, "spill.prefetch_hits", "spill.partitions", 2, 8},
	} {
		if got := m[c.ratio].Value; got != c.want {
			t.Errorf("%s = %v, want %v", c.ratio, got, c.want)
		}
		if m[c.num].Value != c.numV || m[c.base].Value != c.baseV {
			t.Errorf("%s: base metrics %s=%v %s=%v, want %v and %v",
				c.ratio, c.num, m[c.num].Value, c.base, m[c.base].Value, c.numV, c.baseV)
		}
	}
	if got := m["core.examples_built_per_edit"].Value; got != 50 {
		t.Errorf("core.examples_built_per_edit = %v, want 50", got)
	}
}

func TestMatchDeliveriesByTrace(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	sent := []sentEdit{{"a", ms(0)}, {"b", ms(10)}, {"c", ms(20)}}
	recv := []watchRecv{
		{"x", ms(1)},  // another op's event
		{"b", ms(15)}, // out of order
		{"a", ms(4)},
		{"a", ms(30)}, // duplicate: the first receipt counts
	}
	got, missing := matchDeliveries(sent, recv)
	if !reflect.DeepEqual(got, []float64{4, 5}) || missing != 1 {
		t.Fatalf("got %v missing %d, want [4 5] missing 1", got, missing)
	}
}
