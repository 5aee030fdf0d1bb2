package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// --- Reference oracle: string-keyed requirements and row greedy ---

// refRequirementsOf derives, from a complete example set, the textual
// requirement keys a sufficient illustration must cover, and for each
// example the keys it covers, one string per requirement.
func refRequirementsOf(m *Mapping, all []Example) (reqs map[string]bool, covers [][]string) {
	reqs = map[string]bool{}
	covers = make([][]string, len(all))
	ts := m.TargetScheme()
	for i, e := range all {
		ck := e.CoverageKey()
		ks := []string{"G|" + ck}
		if e.Positive {
			ks = append(ks, "F+|"+ck)
			for _, attr := range ts.Names() {
				if e.Target.Get(attr).IsNull() {
					ks = append(ks, "V0|"+ck+"|"+attr)
				} else {
					ks = append(ks, "V+|"+ck+"|"+attr)
				}
			}
		} else {
			ks = append(ks, "F-|"+ck)
		}
		covers[i] = ks
		for _, k := range ks {
			reqs[k] = true
		}
	}
	return reqs, covers
}

// refGreedy is the row-by-row greedy cover: repeatedly pick the first
// unchosen example with strictly the most uncovered requirements.
func refGreedy(reqs map[string]bool, covers [][]string, chosen []bool) []int {
	covered := map[string]bool{}
	for i, c := range chosen {
		if c {
			for _, k := range covers[i] {
				covered[k] = true
			}
		}
	}
	uncovered := 0
	for k := range reqs {
		if !covered[k] {
			uncovered++
		}
	}
	var picks []int
	for uncovered > 0 {
		best, bestGain := -1, 0
		for i := range covers {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, k := range covers[i] {
				if !covered[k] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		picks = append(picks, best)
		for _, k := range covers[best] {
			if !covered[k] {
				covered[k] = true
				uncovered--
			}
		}
	}
	return picks
}

func refSelectSufficient(m *Mapping, full Illustration) Illustration {
	reqs, covers := refRequirementsOf(m, full.Examples)
	out := Illustration{Mapping: m}
	for _, i := range refGreedy(reqs, covers, make([]bool, len(full.Examples))) {
		out.Examples = append(out.Examples, full.Examples[i])
	}
	return out
}

// refEvolveOnDG matches old examples by the string key of each new
// association's projection onto the old scheme (last old example with
// a key wins), then tops up with the row greedy.
func refEvolveOnDG(oldIll Illustration, newM *Mapping, in *relation.Instance, newDG *relation.Relation) (Evolved, error) {
	oldScheme, err := fd.Scheme(oldIll.Mapping.Graph, in)
	if err != nil {
		return Evolved{}, err
	}
	full, err := ExamplesOn(context.Background(), newM, in, newDG)
	if err != nil {
		return Evolved{}, err
	}
	oldByKey := map[string]int{}
	for i, e := range oldIll.Examples {
		oldByKey[e.Assoc.Key()] = i
	}
	extended := make([]bool, len(oldIll.Examples))
	out := Evolved{Illustration: Illustration{Mapping: newM}, Old: len(oldIll.Examples)}
	chosen := make([]bool, len(full.Examples))
	var projPos []int
	if len(full.Examples) > 0 {
		projPos = full.Examples[0].Assoc.Scheme().Positions(oldScheme.Names()...)
	}
	for i, e := range full.Examples {
		if j, ok := oldByKey[e.Assoc.KeyOn(projPos)]; ok {
			extended[j] = true
			e.Inherited = true
			out.Examples = append(out.Examples, e)
			chosen[i] = true
		}
	}
	for _, x := range extended {
		if x {
			out.Extended++
		}
	}
	reqs, covers := refRequirementsOf(newM, full.Examples)
	for _, i := range refGreedy(reqs, covers, chosen) {
		out.Examples = append(out.Examples, full.Examples[i])
		out.Fresh++
	}
	return out, nil
}

func refMissingRequirements(il Illustration, in *relation.Instance) ([]string, error) {
	full, err := AllExamples(context.Background(), il.Mapping, in)
	if err != nil {
		return nil, err
	}
	reqs, _ := refRequirementsOf(il.Mapping, full.Examples)
	_, have := refRequirementsOf(il.Mapping, il.Examples)
	covered := map[string]bool{}
	for _, ks := range have {
		for _, k := range ks {
			covered[k] = true
		}
	}
	var missing []string
	for k := range reqs {
		if !covered[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// --- Differential test ---

// diffCase is a random source with a numeric join domain that mixes
// ints and floats (Int(2) equals Float(2.0)), nullable columns, and
// knowledge edges between random columns.
func diffCase(rng *rand.Rand, rels int) (*relation.Instance, *discovery.Knowledge) {
	sch := schema.NewDatabase()
	for i := 0; i < rels; i++ {
		sch.MustAddRelation(schema.NewRelation(fmt.Sprintf("R%d", i),
			schema.Attribute{Name: "k"}, schema.Attribute{Name: "a"}, schema.Attribute{Name: "b"}))
	}
	in := relation.NewInstance(sch)
	for i := 0; i < rels; i++ {
		r := in.NewRelationFor(fmt.Sprintf("R%d", i))
		for j := 0; j < 3+rng.Intn(4); j++ {
			r.AddValues(diffValue(rng), diffValue(rng), diffValue(rng))
		}
		in.MustAdd(r)
	}
	k := discovery.NewKnowledge()
	attrs := []string{"k", "a"}
	for i := 0; i < rels*2; i++ {
		x, y := rng.Intn(rels), rng.Intn(rels)
		if x == y {
			continue
		}
		k.AddUserEdge(schema.Col(fmt.Sprintf("R%d", x), attrs[rng.Intn(2)]),
			schema.Col(fmt.Sprintf("R%d", y), attrs[rng.Intn(2)]))
	}
	return in, k
}

// diffValue draws from a small domain: ints, the equal floats, a
// string, and null.
func diffValue(rng *rand.Rand) value.Value {
	n := int64(rng.Intn(3))
	switch rng.Intn(6) {
	case 0, 1:
		return value.Int(n)
	case 2, 3:
		return value.Float(float64(n))
	case 4:
		return value.String(fmt.Sprintf("s%d", n))
	}
	return value.Null
}

// diffFilters are predicates over R0 (source) and the target; both
// reach unknown on nulls and on string/number comparisons.
var (
	diffSourceFilters = []string{"R0.a > 0", "R0.k = 1", "R0.b IS NOT NULL"}
	diffTargetFilters = []string{"T.x IS NOT NULL", "T.x < 2", "T.y IS NULL"}
)

// checkSelection compares SelectSufficient, EvolveOnDG, and
// MissingRequirements with the reference oracle for one step, and
// returns the evolved illustration to carry into the next step.
func checkSelection(t *testing.T, step string, old Illustration, m *Mapping, in *relation.Instance) Illustration {
	t.Helper()
	ctx := context.Background()
	dg, err := fd.Compute(ctx, m.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExamplesOn(ctx, m, in, dg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SelectSufficient(ctx, m, full).String(), refSelectSufficient(m, full).String(); got != want {
		t.Fatalf("%s: SelectSufficient differs:\n%s--- reference\n%s", step, got, want)
	}
	ev, err := EvolveOnDG(ctx, old, m, in, dg)
	ref, rerr := refEvolveOnDG(old, m, in, dg)
	if (err != nil) != (rerr != nil) {
		t.Fatalf("%s: EvolveOnDG error %v, reference %v", step, err, rerr)
	}
	if err != nil {
		return SelectSufficient(ctx, m, full)
	}
	if ev.String() != ref.String() || ev.Extended != ref.Extended || ev.Fresh != ref.Fresh || ev.Old != ref.Old {
		t.Fatalf("%s: EvolveOnDG differs (extended %d/%d fresh %d/%d old %d/%d):\n%s--- reference\n%s",
			step, ev.Extended, ref.Extended, ev.Fresh, ref.Fresh, ev.Old, ref.Old, ev.String(), ref.String())
	}
	for _, il := range []Illustration{old, ev.Illustration, {Mapping: m, Examples: full.Examples[:len(full.Examples)/2]}} {
		if il.Mapping.Graph.NodeCount() == 0 {
			continue
		}
		got, gerr := il.MissingRequirements(in)
		want, werr := refMissingRequirements(il, in)
		if (gerr != nil) != (werr != nil) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: MissingRequirements %v (%v), reference %v (%v)", step, got, gerr, want, werr)
		}
	}
	return ev.Illustration
}

// Signature-class selection is the row greedy: on generated mappings
// with source and target filters, null-producing correspondences, and
// cross-kind numeric joins, evolved through random sequences of walks,
// chases, filters, correspondences, and row inserts and deletes, the
// chosen examples, their order, the evolution counts, and the missing
// requirement keys match the string-keyed reference exactly.
func TestSelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	target := schema.NewRelation("T",
		schema.Attribute{Name: "x"}, schema.Attribute{Name: "y"}, schema.Attribute{Name: "z"})
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		rels := 3 + rng.Intn(3)
		in, k := diffCase(rng, rels)
		m := NewMapping("m", target)
		m.Graph.MustAddNode("R0", "R0")
		m.Corrs = []Correspondence{Identity("R0.a", schema.Col("T", "x"))}
		if rng.Intn(2) == 0 {
			m = m.WithSourceFilter(expr.MustParse(diffSourceFilters[rng.Intn(len(diffSourceFilters))]))
		}
		if rng.Intn(2) == 0 {
			m = m.WithTargetFilter(expr.MustParse(diffTargetFilters[rng.Intn(len(diffTargetFilters))]))
		}
		full, err := AllExamples(ctx, m, in)
		if err != nil {
			t.Fatal(err)
		}
		il := SelectSufficient(ctx, m, full)
		for step := 0; step < 10; step++ {
			name := fmt.Sprintf("trial %d step %d", trial, step)
			nodes := m.Graph.Nodes()
			next := m
			switch op := rng.Intn(7); op {
			case 0: // walk
				opts, err := DataWalk(ctx, m, k, nodes[rng.Intn(len(nodes))], fmt.Sprintf("R%d", rng.Intn(rels)), 2)
				if err != nil {
					t.Fatal(err)
				}
				if len(opts) > 0 {
					next = opts[rng.Intn(len(opts))].Mapping
				}
				name += " walk"
			case 1: // chase
				ix := discovery.BuildValueIndex(ctx, in)
				col := nodes[rng.Intn(len(nodes))] + ".k"
				opts, err := DataChase(ctx, m, ix, col, value.Int(int64(rng.Intn(3))))
				if err != nil {
					t.Fatal(err)
				}
				if len(opts) > 0 {
					next = opts[rng.Intn(len(opts))].Mapping
				}
				name += " chase"
			case 2, 3: // insert
				r := in.Relation(fmt.Sprintf("R%d", rng.Intn(rels)))
				r.Add(relation.NewTuple(r.Scheme(), diffValue(rng), diffValue(rng), diffValue(rng)))
				name += " insert"
			case 4: // delete
				if r := in.Relation(fmt.Sprintf("R%d", rng.Intn(rels))); r.Len() > 0 {
					r.RemoveAt(rng.Intn(r.Len()))
				}
				name += " delete"
			case 5: // filter
				if rng.Intn(2) == 0 {
					next = m.WithSourceFilter(expr.MustParse(diffSourceFilters[rng.Intn(len(diffSourceFilters))]))
				} else {
					next = m.WithTargetFilter(expr.MustParse(diffTargetFilters[rng.Intn(len(diffTargetFilters))]))
				}
				name += " filter"
			case 6: // correspondence onto a not-yet-mapped target attribute
				node := nodes[rng.Intn(len(nodes))]
				for _, attr := range []string{"y", "z"} {
					if c, err := m.WithCorrespondence(Identity(node+".b", schema.Col("T", attr))); err == nil {
						next = c
						break
					}
				}
				name += " corr"
			}
			old := il
			if rng.Intn(4) == 0 {
				// Duplicate old examples: the last match must win.
				old.Examples = append(append([]Example(nil), il.Examples...), il.Examples...)
			}
			il = checkSelection(t, name, old, next, in)
			m = next
		}
	}
}
