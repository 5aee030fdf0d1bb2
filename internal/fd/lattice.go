package fd

import (
	"context"
	"encoding/binary"
	"strconv"
	"strings"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/value"
)

// Building the delta-maintainable D(G) over the lattice of connected
// subsets.
//
// Every connected subset J of two or more nodes has a node l whose
// removal leaves it connected (a leaf of any spanning tree), so F(J)
// is F(J∖{l}) joined with R_l on the edges between l and J∖{l}. The
// build visits the subsets by size and computes each F(J) by extending
// its cheapest such parent by one node: one probe of a hash index on
// l's attach columns per parent association (each index built once per
// build), the other edges between l and the parent as residual 3VL
// predicates, and a scan of R_l when the attach has no equality
// conjunct. Associations are written straight into the D(G) layout, so
// no subset runs a join plan of its own and nothing is padded by
// attribute name.
//
// Maximality comes from lineage wherever it can. Call an association
// null-free when every node part of it is. A null-free association r
// over J can only be strictly subsumed by an association that equals r
// on all of J's blocks and is non-null beyond them: one over a
// connected J'' ⊋ J whose restriction to J is r. Some node l ∈ J''∖J
// is adjacent to J, and its tuple t_l extends r — r ⋈ t_l is in
// F(J ∪ {l}). Conversely, an extension by a t_l that is not all-null
// strictly subsumes r. So r is maximal iff no adjacent node extends
// it, which one existence probe per adjacent node decides; the parent
// extension of J ∪ {l} doubles as that probe when J is its parent.
// Such rows enter the SubsumeSet with their flag already known
// (InsertClassified). The rest — a null in some node part, or only
// all-null extensions, which a null-tolerant predicate could admit —
// take the lazy Insert/classify path, which stays exact beside
// lineage-flagged entries because none loaded maximal can be strictly
// subsumed.

// Extension marks of one parent association (latticeBuild.join).
const (
	// extStrict: some adjacent node extends the association by a tuple
	// that is not all-null, so the association is strictly subsumed.
	extStrict uint8 = 1 << iota
	// extAllNull: an adjacent node extends it, but only by all-null
	// tuples, which pad to the association itself.
	extAllNull
)

// nodeSet is a bitset over node indexes.
type nodeSet []uint64

func newNodeSet(n int) nodeSet { return make(nodeSet, (n+63)/64) }

func (s nodeSet) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// with returns a copy of s with node i added.
func (s nodeSet) with(i int) nodeSet {
	out := append(nodeSet(nil), s...)
	out[i/64] |= 1 << (uint(i) % 64)
	return out
}

func (s nodeSet) key() string {
	b := make([]byte, 0, 8*len(s))
	for _, w := range s {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// latticeNode is one query-graph node as the lattice build sees it.
type latticeNode struct {
	name  string
	rel   *relation.Relation // the node's aliased relation
	block []int              // its attribute positions in the D(G) scheme
	// nullFree[i] reports that the relation's i-th tuple has no null.
	// A node without attributes counts as never null-free: its empty
	// block cannot show coverage, so the lineage argument needs it to
	// take the classify path.
	nullFree []bool
	adj      []int // neighbor node indexes
}

// latticeSubset is one connected subset J and, while its level is
// live, its associations F(J).
type latticeSubset struct {
	nodes    nodeSet
	rows     []relation.Tuple // F(J) in the D(G) layout
	nullFree []bool           // per row: every node part null-free
	// parent is the subset this one extends, by node add; cost ranks
	// the candidate parents.
	parent *latticeSubset
	add    int
	cost   int
}

// latticeAttach extends associations of one subset by one node.
type latticeAttach struct {
	ix       *relation.Index // over the node's attach columns; nil scans
	probe    []int           // D(G) positions aligned with ix's columns
	residual expr.Expr       // the remaining edge predicates, or nil
}

// latticeBuild is the state of one NewMaterialized build.
type latticeBuild struct {
	ctx      context.Context
	g        *graph.QueryGraph
	s        *relation.Scheme
	nodes    []latticeNode
	pos      map[string]int // node name → index into nodes
	tr       *budget.Tracker
	set      *relation.SubsumeSet
	arena    *relation.TupleArena
	indexes  map[string]*relation.Index
	attaches map[string]*latticeAttach
	// next holds the level being produced, by node-set key.
	next map[string]*latticeSubset
	// Span counters: rows loaded with a lineage flag, rows routed
	// through classification, index probes and scans, and the rows
	// lineage loaded maximal.
	lineage, classified, probes, maximal int64
}

// buildLattice computes every F(J) of g over in and loads it into
// set, charging the context's budget one association at a time.
func buildLattice(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, s *relation.Scheme, set *relation.SubsumeSet) (*latticeBuild, error) {
	blocks, err := nodeBlocks(g, in, s)
	if err != nil {
		return nil, err
	}
	names := g.Nodes()
	pos := make(map[string]int, len(names))
	for i, name := range names {
		pos[name] = i
	}
	b := &latticeBuild{
		ctx:      ctx,
		g:        g,
		s:        s,
		nodes:    make([]latticeNode, len(names)),
		pos:      pos,
		tr:       budget.FromContext(ctx),
		set:      set,
		arena:    relation.NewTupleArena(s),
		indexes:  map[string]*relation.Index{},
		attaches: map[string]*latticeAttach{},
	}
	for i, name := range names {
		n, _ := g.Node(name)
		r, err := in.Aliased(n.Base, name)
		if err != nil {
			return nil, err
		}
		free := make([]bool, r.Len())
		all := make([]int, r.Scheme().Arity())
		for j := range all {
			all[j] = j
		}
		for j, t := range r.Tuples() {
			free[j] = len(all) > 0 && !t.HasNullAt(all)
		}
		b.nodes[i] = latticeNode{name: name, rel: r, block: blocks[name], nullFree: free}
	}
	for _, e := range g.Edges() {
		a, c := pos[e.A], pos[e.B]
		b.nodes[a].adj = append(b.nodes[a].adj, c)
		b.nodes[c].adj = append(b.nodes[c].adj, a)
	}

	level := make([]*latticeSubset, len(b.nodes))
	for i := range b.nodes {
		n := &b.nodes[i]
		sub := &latticeSubset{
			nodes:    newNodeSet(len(b.nodes)).with(i),
			rows:     make([]relation.Tuple, 0, n.rel.Len()),
			nullFree: make([]bool, 0, n.rel.Len()),
		}
		for j, t := range n.rel.Tuples() {
			if err := b.emit(sub, relation.Tuple{}, t, n, n.nullFree[j]); err != nil {
				return nil, err
			}
		}
		level[i] = sub
	}
	for len(level) > 0 {
		next := b.children(level)
		for _, sub := range level {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := b.expand(sub); err != nil {
				return nil, err
			}
		}
		level = next
	}
	return b, nil
}

// adjacent returns the nodes outside set with a neighbor inside it,
// ascending.
func (b *latticeBuild) adjacent(set nodeSet) []int {
	var out []int
	for i := range b.nodes {
		if set.has(i) {
			continue
		}
		for _, j := range b.nodes[i].adj {
			if set.has(j) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// children enumerates the next level — every connected subset one node
// larger than a subset of level — and picks each one's parent: the
// candidate with the fewest associations to extend, where a scan
// attach costs a pass over the node's relation per association.
func (b *latticeBuild) children(level []*latticeSubset) []*latticeSubset {
	b.next = map[string]*latticeSubset{}
	var out []*latticeSubset
	for _, p := range level {
		for _, l := range b.adjacent(p.nodes) {
			cost := len(p.rows)
			if b.attach(p.nodes, l).ix == nil {
				cost *= b.nodes[l].rel.Len() + 1
			}
			c := p.nodes.with(l)
			k := c.key()
			ch := b.next[k]
			if ch == nil {
				ch = &latticeSubset{nodes: c, parent: p, add: l, cost: cost}
				b.next[k] = ch
				out = append(out, ch)
			} else if cost < ch.cost {
				ch.parent, ch.add, ch.cost = p, l, cost
			}
		}
	}
	return out
}

// expand extends p into the children it parents, decides by existence
// probes whether the adjacent nodes of its other children extend its
// null-free rows, and loads p's rows into the set.
func (b *latticeBuild) expand(p *latticeSubset) error {
	ext := make([]uint8, len(p.rows))
	adj := b.adjacent(p.nodes)
	kids := make([]*latticeSubset, len(adj))
	for i, l := range adj {
		if c := b.next[p.nodes.with(l).key()]; c.parent == p && c.add == l {
			kids[i] = c
		}
	}
	// Parent extensions first: they mark most rows extended, so the
	// existence probes after them skip those rows.
	for i, l := range adj {
		if kids[i] != nil {
			if err := b.join(p, l, kids[i], ext); err != nil {
				return err
			}
		}
	}
	for i, l := range adj {
		if kids[i] == nil {
			if err := b.join(p, l, nil, ext); err != nil {
				return err
			}
		}
	}
	for i, r := range p.rows {
		if !p.nullFree[i] || ext[i] == extAllNull {
			b.set.Insert(r)
			b.classified++
			continue
		}
		maximal := ext[i] == 0
		b.set.InsertClassified(r, maximal)
		b.lineage++
		if maximal {
			b.maximal++
		}
	}
	p.rows, p.nullFree = nil, nil
	return nil
}

// join matches p's rows with node l's tuples on the edges between l
// and p, marking each matched row in ext. With a child it emits every
// match into it; without one it is an existence probe, run only for
// null-free rows not yet known to be strictly subsumed, and stopping at
// their first such extension.
func (b *latticeBuild) join(p *latticeSubset, l int, child *latticeSubset, ext []uint8) error {
	a := b.attach(p.nodes, l)
	n := &b.nodes[l]
	ts := n.rel.Tuples()
	for i, r := range p.rows {
		if i&1023 == 1023 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if child == nil && (!p.nullFree[i] || ext[i]&extStrict != 0) {
			continue
		}
		b.probes++
		var cand []int
		m := len(ts)
		if a.ix != nil {
			cand = a.ix.ProbeTuple(r, a.probe)
			m = len(cand)
		}
		for k := 0; k < m; k++ {
			j := k
			if cand != nil {
				j = cand[k]
			}
			t := ts[j]
			if a.residual != nil && expr.Truth(a.residual, b.arena.PlaceScratch(r, t, n.block)) != value.True {
				continue
			}
			if t.IsAllNull() {
				ext[i] |= extAllNull
			} else {
				ext[i] |= extStrict
			}
			if child == nil {
				if ext[i]&extStrict != 0 {
					break
				}
				continue
			}
			if err := b.emit(child, r, t, n, p.nullFree[i] && n.nullFree[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit writes base extended by node n's tuple t into c's associations,
// charging the budget for it exactly as any padded association.
func (b *latticeBuild) emit(c *latticeSubset, base, t relation.Tuple, n *latticeNode, nullFree bool) error {
	row := b.arena.Place(base, t, n.block)
	if b.tr != nil {
		if err := b.tr.Charge(1, row.ApproxBytes()); err != nil {
			return err
		}
	}
	c.rows = append(c.rows, row)
	c.nullFree = append(c.nullFree, nullFree)
	return nil
}

// attach returns the plan extending subset set by node l: the first
// edge between them with an equality conjunct drives a hash probe of
// l's relation, and every other conjunct of every edge between them is
// a residual predicate. Plans and indexes are cached for the build.
func (b *latticeBuild) attach(set nodeSet, l int) *latticeAttach {
	k := set.key() + strconv.Itoa(l)
	if a := b.attaches[k]; a != nil {
		return a
	}
	n := &b.nodes[l]
	a := &latticeAttach{}
	var rest []expr.Expr
	for _, e := range b.g.Edges() {
		other, ok := e.Other(n.name)
		if !ok {
			continue
		}
		m := b.pos[other]
		if !set.has(m) {
			continue
		}
		if a.ix == nil {
			lCols, mCols, residual := algebra.SplitEquiConjuncts(e.Pred, n.rel.Scheme(), b.nodes[m].rel.Scheme())
			if len(lCols) > 0 {
				a.ix = b.index(l, lCols)
				a.probe = b.s.Positions(mCols...)
				if residual != nil {
					rest = append(rest, residual)
				}
				continue
			}
		}
		rest = append(rest, e.Pred)
	}
	if len(rest) > 0 {
		a.residual = expr.And(rest...)
	}
	b.attaches[k] = a
	return a
}

// index returns node l's hash index on the given columns, building it
// on first use.
func (b *latticeBuild) index(l int, cols []string) *relation.Index {
	k := strconv.Itoa(l) + "\x00" + strings.Join(cols, "\x00")
	ix := b.indexes[k]
	if ix == nil {
		ix = b.nodes[l].rel.BuildIndex(cols...)
		b.indexes[k] = ix
	}
	return ix
}
