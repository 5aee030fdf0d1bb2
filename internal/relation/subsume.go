package relation

import (
	"slices"
	"sort"
)

// SubsumeSet maintains the subsumption-maximal tuples of a multiset of
// equal-scheme tuples under single-tuple inserts and deletes. It is the
// incremental counterpart of RemoveSubsumed(r.Distinct()): after any
// sequence of Insert/Delete calls, Rel() equals what a full
// RemoveSubsumed over the surviving multiset would produce.
//
// The structure groups live tuples by null mask, exactly like the batch
// algorithm: a tuple u can only be strictly subsumed by a tuple whose
// mask is a strict superset of u's, matching u on u's non-null
// positions. Each group keeps a hash index on its own positions plus
// lazily built (then incrementally maintained) indexes on subset-mask
// positions, so classifying or deleting one tuple touches
// O(groups + matches) tuples, not O(n).
//
// Classification is lazy. Insert only registers the tuple; maximal
// flags are computed for the tuples inserted since the last
// classification when Rel, Delete or InsertPruning next needs them
// (see classify). Only the arrivals found maximal demote what they
// subsume — an arrival that is itself subsumed cannot demote anything
// its subsumer does not already demote (transitivity) — and arrivals
// are probed only against tuples classified before them. So building
// a set from scratch costs one demotion pass per maximal tuple and no
// probes, while a delta edit still classifies just its own arrivals.
//
// The canonical order covers only the maximal front. A tuple's key is
// rendered when it first becomes maximal, tuples that became maximal
// since the last Rel are sorted among themselves, and Rel merges them
// into the ordered front in one linear pass — a delta-maintained set
// never re-sorts, and the subsumed majority of a D(G) never renders a
// key.
//
// Duplicates are collapsed into per-tuple counts, which keeps maximal
// membership well defined for multisets: a tuple stays present until
// its count reaches zero.
//
// A SubsumeSet is not safe for concurrent use; Rel mutates it too.
type SubsumeSet struct {
	scheme *Scheme
	groups map[string]*ssGroup
	// n counts distinct live tuples (any count).
	n int
	// liveNonNull counts live distinct tuples with at least one
	// non-null attribute. The all-null tuple is maximal exactly when
	// this is zero (the batch algorithm's "drop the all-null group
	// whenever any other group exists" rule).
	liveNonNull int
	// pending holds the entries inserted since the last
	// classification; their maximal flags are not yet computed.
	pending []*ssEntry
	// front holds the maximal front in canonical key order as of the
	// last Rel. Entries demoted or removed since stay until the next
	// Rel drops them.
	front []*ssEntry
	// entering holds maximal entries not yet merged into front, in no
	// particular order.
	entering []*ssEntry
}

// ssGroup holds the live tuples sharing one null mask.
type ssGroup struct {
	mask      Mask
	positions []int
	// n counts the group's live entries, unclassified the ones among
	// them still pending classification.
	n, unclassified int
	// entries indexes live tuples by full-tuple hash (bucket+confirm,
	// same discipline as Distinct).
	entries map[uint64][]*ssEntry
	// sub holds hash indexes of this group's tuples keyed on a
	// subset mask's positions — the probe target when a narrower tuple
	// asks "does anything here subsume me?". Built lazily per subset
	// mask, then kept fresh by every add/remove. The group's own
	// positions are one such index (its own mask key, also held in
	// own), used when a wider tuple demotes or re-checks the tuples it
	// subsumes.
	sub map[string]*ssSubIndex
	own *ssSubIndex
}

// ssSubIndex is one lazily built projection index of a group.
type ssSubIndex struct {
	positions []int
	buckets   map[uint64][]*ssEntry
}

// ssEntry is one distinct tuple with its multiset count. Entries
// persist across refreshes of a delta-maintained materialization, so
// the canonical key, rendered once when the entry first joins the
// maximal front, is cached for every later merge.
type ssEntry struct {
	t     Tuple
	g     *ssGroup
	key   string
	count int
	// maximal is valid once the entry has left pending. A removed
	// entry is never maximal.
	maximal bool
	// inFront reports membership in SubsumeSet.front; slot is the
	// entry's index in SubsumeSet.entering, or -1. An entry is in at
	// most one of the two.
	inFront bool
	slot    int
}

// NewSubsumeSet creates an empty set over the scheme.
func NewSubsumeSet(s *Scheme) *SubsumeSet {
	return &SubsumeSet{scheme: s, groups: map[string]*ssGroup{}}
}

// Len returns the number of distinct live tuples (any count).
func (s *SubsumeSet) Len() int { return s.n }

// groupOf returns the group of t's null mask, or nil. The key renders
// into a stack buffer, so the lookup allocates nothing.
func (s *SubsumeSet) groupOf(t Tuple) *ssGroup {
	var buf [64]byte
	return s.groups[string(t.appendNonNullKey(buf[:0]))]
}

func (s *SubsumeSet) group(m Mask) *ssGroup {
	k := m.Key()
	g := s.groups[k]
	if g == nil {
		g = &ssGroup{
			mask:      m,
			positions: m.Ones(),
			entries:   map[uint64][]*ssEntry{},
			sub:       map[string]*ssSubIndex{},
		}
		g.own = &ssSubIndex{positions: g.positions, buckets: map[uint64][]*ssEntry{}}
		g.sub[k] = g.own
		s.groups[k] = g
	}
	return g
}

// find returns the live entry Equal to t, or nil.
func (g *ssGroup) find(h uint64, t Tuple) *ssEntry {
	for _, e := range g.entries[h] {
		if e.t.Equal(t) {
			return e
		}
	}
	return nil
}

// add registers a new entry in the group's hash index and every
// existing projection index.
func (g *ssGroup) add(h uint64, e *ssEntry) {
	g.n++
	g.entries[h] = append(g.entries[h], e)
	for _, ix := range g.sub {
		ph := e.t.HashOn(ix.positions)
		ix.buckets[ph] = append(ix.buckets[ph], e)
	}
}

// remove unregisters an entry from the hash index and every projection
// index.
func (g *ssGroup) remove(h uint64, e *ssEntry) {
	g.n--
	g.entries[h] = removeEntry(g.entries[h], e)
	if len(g.entries[h]) == 0 {
		delete(g.entries, h)
	}
	for _, ix := range g.sub {
		ph := e.t.HashOn(ix.positions)
		ix.buckets[ph] = removeEntry(ix.buckets[ph], e)
		if len(ix.buckets[ph]) == 0 {
			delete(ix.buckets, ph)
		}
	}
}

// add registers a new live entry for t (hash h) in group g. Its
// maximal flag is left for the caller to set or classify.
func (s *SubsumeSet) add(g *ssGroup, h uint64, t Tuple) *ssEntry {
	e := &ssEntry{t: t, g: g, count: 1, slot: -1}
	g.add(h, e)
	s.n++
	if len(g.positions) > 0 {
		s.liveNonNull++
	}
	return e
}

// drop unregisters a live entry whose count reached zero (or that an
// arrival evicted).
func (s *SubsumeSet) drop(h uint64, e *ssEntry) {
	e.g.remove(h, e)
	s.n--
	if len(e.g.positions) > 0 {
		s.liveNonNull--
	}
	e.count = 0
	e.maximal = false
	if e.slot >= 0 {
		// Swap-remove, so an evicted entry is not kept reachable until
		// the next Rel.
		last := s.entering[len(s.entering)-1]
		s.entering[e.slot] = last
		last.slot = e.slot
		s.entering[len(s.entering)-1] = nil
		s.entering = s.entering[:len(s.entering)-1]
		e.slot = -1
	}
}

// enter queues a maximal entry for the front unless it is there (or
// queued) already.
func (s *SubsumeSet) enter(e *ssEntry) {
	if !e.inFront && e.slot < 0 {
		e.slot = len(s.entering)
		s.entering = append(s.entering, e)
	}
}

// classify computes the maximal flags of the pending entries. Every
// pending entry starts out maximal; each one still maximal at its turn
// probes the groups holding previously classified entries and, if
// nothing there subsumes it, stays maximal and demotes everything it
// strictly subsumes. That yields exactly the flags of eager insertion:
// any tuple with a strict subsumer has a maximal one (the strict order
// is finite), which is either pending — and demotes it — or was
// classified before, in a group the probe visits. So groups holding
// only pending entries are never probed, and building a set from
// scratch probes nothing. Visiting wider null masks first (a strict
// subsumer's mask is strictly wider) demotes most subsumed entries
// before their turn, so they skip both the probe and the demotion
// pass.
func (s *SubsumeSet) classify() {
	if len(s.pending) == 0 {
		return
	}
	slices.SortFunc(s.pending, func(a, b *ssEntry) int {
		return len(b.g.positions) - len(a.g.positions)
	})
	for _, e := range s.pending {
		e.maximal = true
	}
	for _, e := range s.pending {
		if !e.maximal {
			continue
		}
		if s.subsumedBy(e.g, e.t) {
			e.maximal = false
			continue
		}
		s.enter(e)
		s.eachSubsumed(e.g, e.t, func(_ *ssGroup, sub *ssEntry) {
			sub.maximal = false
		})
	}
	for _, e := range s.pending {
		e.g.unclassified = 0
	}
	clear(s.pending)
	s.pending = s.pending[:0]
}

func removeEntry(es []*ssEntry, e *ssEntry) []*ssEntry {
	for i, x := range es {
		if x == e {
			es[i] = es[len(es)-1]
			return es[:len(es)-1]
		}
	}
	return es
}

// index returns the group's projection index on the given subset mask,
// building it over the current live entries on first use.
func (g *ssGroup) index(m Mask, positions []int) *ssSubIndex {
	k := m.Key()
	if ix, ok := g.sub[k]; ok {
		return ix
	}
	ix := &ssSubIndex{positions: positions, buckets: map[uint64][]*ssEntry{}}
	for _, es := range g.entries {
		for _, e := range es {
			ph := e.t.HashOn(positions)
			ix.buckets[ph] = append(ix.buckets[ph], e)
		}
	}
	g.sub[k] = ix
	return ix
}

// subsumedBy reports whether any live tuple strictly subsumes t, whose
// group is g. This predicate depends only on the live multiset, never
// on current maximal flags, which is what makes delete-time promotion
// order-independent. Groups holding only unclassified entries are not
// probed: classify reaches their subsumers by demotion instead (and
// outside classify no entry is unclassified).
func (s *SubsumeSet) subsumedBy(g *ssGroup, t Tuple) bool {
	if len(g.positions) == 0 {
		return s.liveNonNull > 0
	}
	for _, h := range s.groups {
		if h == g || h.n == h.unclassified || !h.mask.SupersetOf(g.mask) || h.mask.Equal(g.mask) {
			continue
		}
		ix := h.index(g.mask, g.positions)
		for _, e := range ix.buckets[t.HashOn(g.positions)] {
			if e.t.EqualOn(t, g.positions, g.positions) {
				return true
			}
		}
	}
	return false
}

// eachSubsumed visits every live entry strictly subsumed by t (group g),
// i.e. entries in strict-subset-mask groups matching t on their own
// positions.
func (s *SubsumeSet) eachSubsumed(g *ssGroup, t Tuple, visit func(h *ssGroup, e *ssEntry)) {
	for _, h := range s.groups {
		if h == g || !g.mask.SupersetOf(h.mask) || g.mask.Equal(h.mask) {
			continue
		}
		for _, e := range h.own.buckets[t.HashOn(h.positions)] {
			if e.t.EqualOn(t, h.positions, h.positions) {
				visit(h, e)
			}
		}
	}
}

// Insert adds one occurrence of t to the multiset. A new tuple is only
// registered; its maximal flag is classified when next needed.
func (s *SubsumeSet) Insert(t Tuple) {
	g := s.groupOf(t)
	if g == nil {
		g = s.group(t.NonNullMask())
	}
	h := t.Hash64()
	if e := g.find(h, t); e != nil {
		e.count++
		return
	}
	g.unclassified++
	s.pending = append(s.pending, s.add(g, h, t))
}

// InsertPruning adds one occurrence of t in insert-only accumulation
// mode: a strictly-subsumed arrival is dropped instead of stored, and
// the entries t strictly subsumes are physically evicted and returned,
// so the set's residency tracks its maximal front rather than the full
// distinct multiset. inserted reports whether t now lives in the set
// (false for duplicates, which only bump the existing count, and for
// subsumed arrivals).
//
// Soundness of the pruning: subsumption is transitive, so anything a
// dropped arrival would later have subsumed is also subsumed by
// whichever live tuple dropped it, and anything an evicted entry
// subsumed is subsumed by its evictor — the surviving entries are
// exactly the maximal front at every step. The pruning erases the
// history Delete-time promotion needs, so a set built with
// InsertPruning must not be mixed with Delete-based maintenance
// (delta maintenance keeps using Insert/Delete).
func (s *SubsumeSet) InsertPruning(t Tuple) (displaced []Tuple, inserted bool) {
	s.classify()
	g := s.groupOf(t)
	if g == nil {
		g = s.group(t.NonNullMask())
	}
	h := t.Hash64()
	if e := g.find(h, t); e != nil {
		e.count++
		return nil, false
	}
	if s.subsumedBy(g, t) {
		return nil, false
	}
	e := s.add(g, h, t)
	e.maximal = true
	s.enter(e)
	// Collect first, then remove: eachSubsumed iterates the very
	// buckets removal mutates.
	var victims []*ssEntry
	s.eachSubsumed(g, t, func(_ *ssGroup, sub *ssEntry) {
		victims = append(victims, sub)
	})
	for _, v := range victims {
		s.drop(v.t.Hash64(), v)
		displaced = append(displaced, v.t)
	}
	return displaced, true
}

// Delete removes one occurrence of t from the multiset. It reports an
// inconsistency (tuple not present) via the return value so callers can
// fall back to a rebuild rather than silently diverge.
func (s *SubsumeSet) Delete(t Tuple) bool {
	g := s.groupOf(t)
	if g == nil {
		return false
	}
	h := t.Hash64()
	e := g.find(h, t)
	if e == nil {
		return false
	}
	if e.count > 1 {
		e.count--
		return true
	}
	s.classify()
	wasMaximal := e.maximal
	s.drop(h, e)
	if !wasMaximal {
		return true
	}
	// t was maximal: each tuple it strictly subsumed is promoted iff no
	// other live tuple still subsumes it. The check probes the live
	// multiset directly (not maximal flags), so visit order is
	// irrelevant.
	s.eachSubsumed(g, t, func(h *ssGroup, sub *ssEntry) {
		if !sub.maximal && !s.subsumedBy(h, sub.t) {
			sub.maximal = true
			s.enter(sub)
		}
	})
	return true
}

// Rel materializes the current maximal tuples as a relation sorted by
// canonical tuple key. It classifies pending tuples, sorts the tuples
// that became maximal since the last call, and merges them into the
// ordered front while dropping entries no longer maximal — one linear
// pass over the front plus a sort of the newcomers. The order makes
// the result independent of maintenance history: a delta-maintained
// set, a freshly rebuilt set, and a replayed session all render
// byte-identical relations.
func (s *SubsumeSet) Rel(name string) *Relation {
	s.classify()
	in := s.entering[:0]
	for _, e := range s.entering {
		e.slot = -1
		if e.maximal {
			if e.key == "" {
				e.key = e.t.Key()
			}
			e.inFront = true
			in = append(in, e)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].key < in[j].key })
	front := make([]*ssEntry, 0, len(s.front)+len(in))
	i := 0
	for _, e := range s.front {
		if !e.maximal {
			e.inFront = false
			continue
		}
		for ; i < len(in) && in[i].key < e.key; i++ {
			front = append(front, in[i])
		}
		front = append(front, e)
	}
	front = append(front, in[i:]...)
	clear(s.entering)
	s.entering = s.entering[:0]
	s.front = front

	out := New(name, s.scheme)
	out.tuples = make([]Tuple, 0, len(front))
	for _, e := range front {
		out.Add(e.t)
	}
	return out
}
