package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clio/internal/value"
)

// randomNullableTuple builds a tuple over s with each attribute null
// with probability pNull, values drawn from a tiny domain so tuples
// collide, subsume, and duplicate often.
func randomNullableTuple(rng *rand.Rand, s *Scheme, pNull float64) Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		if rng.Float64() < pNull {
			vals[i] = value.Null
		} else {
			vals[i] = value.Int(int64(rng.Intn(3)))
		}
	}
	return NewTuple(s, vals...)
}

// Differential property: after any sequence of inserts and deletes the
// SubsumeSet's maximal front equals RemoveSubsumed over the surviving
// multiset (and the O(n²) naive reference). Deletes remove previously
// inserted occurrences, so the multiset bookkeeping is exercised too.
func TestSubsumeSetMatchesBatchRandomized(t *testing.T) {
	s := NewScheme("a", "b", "c")
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 40; trial++ {
		set := NewSubsumeSet(s)
		var live []Tuple
		steps := 10 + rng.Intn(30)
		for step := 0; step < steps; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				tp := live[i]
				live = append(live[:i], live[i+1:]...)
				if !set.Delete(tp) {
					t.Fatalf("trial %d step %d: delete of live tuple %v refused", trial, step, tp)
				}
			} else {
				tp := randomNullableTuple(rng, s, 0.4)
				live = append(live, tp)
				set.Insert(tp)
			}
			batch := FromTuples("live", s, live)
			want := RemoveSubsumed(batch.Distinct())
			wantNaive := RemoveSubsumedNaive(batch.Distinct())
			got := set.Rel("live")
			if !got.EqualSet(want) {
				t.Fatalf("trial %d step %d: incremental front differs from batch\nlive: %v\ngot:\n%v\nwant:\n%v",
					trial, step, live, got, want)
			}
			if !got.EqualSet(wantNaive) {
				t.Fatalf("trial %d step %d: incremental front differs from naive reference", trial, step)
			}
		}
	}
}

// Deleting a tuple that was never inserted (or already fully removed)
// must be refused, not silently diverge.
func TestSubsumeSetDeleteUntracked(t *testing.T) {
	s := NewScheme("a")
	set := NewSubsumeSet(s)
	tp := NewTuple(s, value.Int(1))
	if set.Delete(tp) {
		t.Fatal("delete on empty set should report untracked")
	}
	set.Insert(tp)
	set.Insert(tp)
	if !set.Delete(tp) || !set.Delete(tp) {
		t.Fatal("two inserts must admit two deletes")
	}
	if set.Delete(tp) {
		t.Fatal("third delete should report untracked")
	}
	if got := set.Rel("x").Len(); got != 0 {
		t.Fatalf("emptied set renders %d rows", got)
	}
}

// The rendered relation must be canonical: identical content reached
// through different insert/delete histories renders byte-identically.
func TestSubsumeSetRenderIsHistoryIndependent(t *testing.T) {
	s := NewScheme("a", "b")
	rng := rand.New(rand.NewSource(7))
	tuples := make([]Tuple, 8)
	for i := range tuples {
		tuples[i] = randomNullableTuple(rng, s, 0.3)
	}
	// History 1: straight inserts. History 2: inserts in reverse with
	// noise tuples added and removed along the way.
	a := NewSubsumeSet(s)
	for _, tp := range tuples {
		a.Insert(tp)
	}
	b := NewSubsumeSet(s)
	noise := NewTuple(s, value.Int(9), value.Int(9))
	for i := len(tuples) - 1; i >= 0; i-- {
		b.Insert(noise)
		b.Insert(tuples[i])
		if !b.Delete(noise) {
			t.Fatal("noise delete refused")
		}
	}
	ra, rb := a.Rel("x"), b.Rel("x")
	if fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatalf("render depends on history:\n%v\nvs\n%v", ra, rb)
	}
}

// The all-null tuple is maximal exactly while it is alone, and must be
// re-promoted when the last non-null tuple is deleted.
func TestSubsumeSetAllNullLifecycle(t *testing.T) {
	s := NewScheme("a", "b")
	set := NewSubsumeSet(s)
	allNull := NewTuple(s, value.Null, value.Null)
	set.Insert(allNull)
	if got := set.Rel("x").Len(); got != 1 {
		t.Fatalf("lone all-null tuple not maximal: %d rows", got)
	}
	other := NewTuple(s, value.Int(1), value.Null)
	set.Insert(other)
	if got := set.Rel("x"); got.Len() != 1 || got.At(0).Get("a").IsNull() {
		t.Fatalf("all-null tuple not demoted by non-null insert:\n%v", got)
	}
	if !set.Delete(other) {
		t.Fatal("delete refused")
	}
	if got := set.Rel("x").Len(); got != 1 {
		t.Fatalf("all-null tuple not re-promoted after delete: %d rows", got)
	}
}

// InsertPruning unit coverage for the three spill-replay paths: exact
// duplicates bump the count without displacing, tuples subsumed on
// arrival are rejected, and an arriving tuple evicts every live entry
// it subsumes — returning each exactly once so the caller can refund
// its budget charges.
func TestSubsumeSetInsertPruningPaths(t *testing.T) {
	s := NewScheme("a", "b", "c")
	tup := func(vs ...value.Value) Tuple { return NewTuple(s, vs...) }
	i := func(n int64) value.Value { return value.Int(n) }

	set := NewSubsumeSet(s)

	// Fresh maximal tuple: inserted, nothing displaced.
	partial := tup(i(1), value.Null, value.Null)
	if d, ok := set.InsertPruning(partial); !ok || len(d) != 0 {
		t.Fatalf("fresh insert: displaced=%v inserted=%v", d, ok)
	}

	// Exact duplicate: not inserted, nothing displaced, Len unchanged.
	if d, ok := set.InsertPruning(tup(i(1), value.Null, value.Null)); ok || len(d) != 0 {
		t.Fatalf("duplicate insert: displaced=%v inserted=%v", d, ok)
	}
	if set.Len() != 1 {
		t.Fatalf("len after duplicate = %d, want 1", set.Len())
	}

	// A second incomparable partial, then a complete tuple subsuming
	// both: both must come back displaced (once each) and leave the set.
	other := tup(value.Null, i(2), value.Null)
	if _, ok := set.InsertPruning(other); !ok {
		t.Fatal("incomparable partial rejected")
	}
	complete := tup(i(1), i(2), i(3))
	d, ok := set.InsertPruning(complete)
	if !ok || len(d) != 2 {
		t.Fatalf("subsuming insert: displaced=%d inserted=%v, want 2 displaced", len(d), ok)
	}
	seen := map[string]bool{}
	for _, v := range d {
		seen[v.Key()] = true
	}
	if !seen[partial.Key()] || !seen[other.Key()] {
		t.Fatalf("displaced set %v missing a victim", d)
	}
	if set.Len() != 1 {
		t.Fatalf("len after eviction = %d, want 1", set.Len())
	}

	// Subsumed on arrival: rejected with no displacement, even though
	// the arriving tuple is novel.
	if d, ok := set.InsertPruning(tup(i(1), value.Null, i(3))); ok || len(d) != 0 {
		t.Fatalf("subsumed arrival: displaced=%v inserted=%v", d, ok)
	}

	// The surviving front is exactly the complete tuple.
	front := set.Rel("r")
	if front.Len() != 1 || !front.Tuples()[0].Equal(complete) {
		t.Fatalf("front = %v, want just %v", front.Tuples(), complete)
	}
}

// requireFront asserts that set renders exactly RemoveSubsumed over the
// distinct live multiset, in canonical key order, and that Len counts
// the distinct live tuples.
func requireFront(t *testing.T, set *SubsumeSet, s *Scheme, live []Tuple, where string) {
	t.Helper()
	distinct := FromTuples("live", s, live).Distinct()
	want := RemoveSubsumed(distinct).Sorted()
	got := set.Rel("live")
	if got.String() != want.String() {
		t.Fatalf("%s: front differs from RemoveSubsumed(Distinct(multiset))\nlive: %v\ngot:\n%v\nwant:\n%v",
			where, live, got, want)
	}
	if set.Len() != distinct.Len() {
		t.Fatalf("%s: Len() = %d, want %d distinct live tuples", where, set.Len(), distinct.Len())
	}
}

// Differential property for lazy classification: random interleavings
// of Insert, Delete and Rel — where many inserts stay unclassified
// between Rel calls, deletes hit entries no Rel has classified yet,
// tuples repeat, the all-null tuple comes and goes, and three-attribute
// masks form demote/promote chains — always render RemoveSubsumed over
// the surviving multiset, byte for byte.
func TestSubsumeSetLazyInterleavingsMatchBatch(t *testing.T) {
	s := NewScheme("a", "b", "c")
	allNull := AllNull(s)
	rng := rand.New(rand.NewSource(2718))
	var unclassifiedDeletes, allNullInserts, dupInserts int
	for trial := 0; trial < 200; trial++ {
		set := NewSubsumeSet(s)
		var live []Tuple
		steps := 5 + rng.Intn(40)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 2 && len(live) > 0:
				i := rng.Intn(len(live))
				tp := live[i]
				if e := set.groupOf(tp).find(tp.Hash64(), tp); e != nil && slices.Contains(set.pending, e) {
					unclassifiedDeletes++
				}
				live = append(live[:i], live[i+1:]...)
				if !set.Delete(tp) {
					t.Fatalf("trial %d step %d: delete of live tuple %v refused", trial, step, tp)
				}
			case op < 4:
				requireFront(t, set, s, live, fmt.Sprintf("trial %d step %d", trial, step))
			default:
				var tp Tuple
				switch {
				case rng.Intn(8) == 0:
					tp = allNull
					allNullInserts++
				case len(live) > 0 && rng.Intn(4) == 0:
					tp = live[rng.Intn(len(live))]
					dupInserts++
				default:
					tp = randomNullableTuple(rng, s, 0.4)
				}
				live = append(live, tp)
				set.Insert(tp)
			}
		}
		requireFront(t, set, s, live, fmt.Sprintf("trial %d end", trial))
	}
	if unclassifiedDeletes == 0 || allNullInserts == 0 || dupInserts == 0 {
		t.Fatalf("vacuous run: %d unclassified deletes, %d all-null inserts, %d duplicate inserts",
			unclassifiedDeletes, allNullInserts, dupInserts)
	}
}

// A subsumption chain across four masks, built without any Rel in
// between so every entry is unclassified when the first delete lands:
// deleting from the top promotes each next tuple in turn, down to the
// all-null tuple; reinserting the top demotes the whole chain again.
func TestSubsumeSetChainPromotesAcrossMasks(t *testing.T) {
	s := NewScheme("a", "b", "c")
	i := func(n int64) value.Value { return value.Int(n) }
	chain := []Tuple{
		AllNull(s),
		NewTuple(s, i(1), value.Null, value.Null),
		NewTuple(s, i(1), i(2), value.Null),
		NewTuple(s, i(1), i(2), i(3)),
	}
	set := NewSubsumeSet(s)
	var live []Tuple
	insert := func(tp Tuple) {
		set.Insert(tp)
		live = append(live, tp)
	}
	remove := func(tp Tuple) {
		t.Helper()
		if !set.Delete(tp) {
			t.Fatalf("delete of %v refused", tp)
		}
		i := slices.IndexFunc(live, tp.Equal)
		live = slices.Delete(live, i, i+1)
	}
	for _, tp := range chain {
		insert(tp)
	}
	// A duplicate of the middle tuple: it stays on top until its second
	// delete.
	insert(chain[2])
	top := chain[len(chain)-1]
	for _, tp := range []Tuple{chain[3], chain[2], chain[2], chain[1], chain[0]} {
		remove(tp)
		requireFront(t, set, s, live, fmt.Sprintf("after deleting %v", tp))
		insert(top)
		requireFront(t, set, s, live, fmt.Sprintf("after reinserting the top over %d tuples", len(live)))
		remove(top)
	}
	if set.Len() != 0 {
		t.Fatalf("emptied set has Len %d", set.Len())
	}
}

// InsertClassified loads tuples with their final maximal flags beside
// plain Inserts. Loaded with the flags a naive check over the finished
// multiset gives, the set must render exactly the batch front, keep
// its counts, and stay exact under the deletes that follow — the
// promotions of entries loaded non-maximal included.
func TestSubsumeSetInsertClassifiedMixesWithInsert(t *testing.T) {
	s := NewScheme("a", "b", "c")
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 40; trial++ {
		live := make([]Tuple, 5+rng.Intn(25))
		for i := range live {
			live[i] = randomNullableTuple(rng, s, 0.35)
		}
		set := NewSubsumeSet(s)
		for _, tp := range live {
			if rng.Intn(2) == 0 {
				set.Insert(tp)
				continue
			}
			maximal := true
			for _, o := range live {
				if o.StrictlySubsumes(tp) {
					maximal = false
					break
				}
			}
			set.InsertClassified(tp, maximal)
		}
		counts := map[string]int{}
		for _, tp := range live {
			counts[tp.Key()]++
		}
		set.Each(func(tp Tuple, count int, _ bool) {
			if counts[tp.Key()] != count {
				t.Fatalf("trial %d: %v has count %d, want %d", trial, tp, count, counts[tp.Key()])
			}
			delete(counts, tp.Key())
		})
		if len(counts) != 0 {
			t.Fatalf("trial %d: %d distinct tuples missing from the set", trial, len(counts))
		}
		for len(live) > 0 {
			want := RemoveSubsumedNaive(FromTuples("live", s, live).Distinct())
			if got := set.Rel("live"); !got.EqualSet(want) {
				t.Fatalf("trial %d (%d live): front differs from batch\ngot:\n%v\nwant:\n%v", trial, len(live), got, want)
			}
			i := rng.Intn(len(live))
			if !set.Delete(live[i]) {
				t.Fatalf("trial %d: delete of live tuple %v refused", trial, live[i])
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
}
