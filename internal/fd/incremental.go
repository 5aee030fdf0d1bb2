package fd

import (
	"context"
	"errors"
	"fmt"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// Incremental-vs-full decision counters: how often a walk/chase step
// was maintained with one outer join versus recomputed from scratch.
var (
	cIncExtend = obs.GetCounter("fd.incremental.extend")
	cIncFull   = obs.GetCounter("fd.incremental.full")
)

// Incremental maintenance of D(G) under leaf extension. Data walks
// and chases grow the query graph by single leaves (a chase adds one
// node; each walk step adds one node), so the common evolution step is
// G' = G + node n + edge (p, n).
//
// Claim: D(G') = RemoveSubsumed( D(G) FULL JOIN R_n ON pred ).
//
// Proof sketch. (⊇) Every join output is an association of G':
// matched rows are d·r with the edge predicate true; unmatched D(G)
// rows pad n with nulls; unmatched R_n rows are {n} singletons. The
// sweep leaves only maximal ones. (⊆) Let d' ∈ D(G'). If n is not
// covered, d' is maximal among G-associations — any strictly
// subsuming G-association would also be a G'-association — so
// d' ∈ D(G) and the join preserves it (padded, unmatched or removed
// only if subsumed, contradiction). If n is covered, write
// d' = e·r_n; e is a maximal G-association, because any e'' ⊐ e
// yields e''·r_n ⊐ d' (the edge predicate only reads p's attributes,
// on which e and e'' agree — e covers p since the predicate held).
// So e ∈ D(G) and the join produces d'. ∎
//
// Each walk/chase thus costs one hash join over the previous D(G)
// instead of a full recomputation (benchmark E7).

// ExtendLeaf computes D(G′) from a previously computed D(G), where
// newGraph extends oldGraph by exactly one leaf node. It returns an
// error if the graphs do not differ by a single leaf.
func ExtendLeaf(ctx context.Context, dg *relation.Relation, oldGraph, newGraph *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	leaf, edge, err := leafDelta(oldGraph, newGraph)
	if err != nil {
		return nil, err
	}
	// Chaos hook: an injected fault here models a mid-extension failure
	// (worker death, transient I/O). ExtendLeaf builds its result in
	// private accumulators and publishes nothing on any error path, so
	// callers observing this error hold no partially-extended state.
	if err := fault.Inject("fd.extend_leaf"); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "fd.extend_leaf")
	defer span.End()
	span.SetStr("leaf", leaf)
	span.SetInt("base", int64(dg.Len()))
	n, _ := newGraph.Node(leaf)
	r, err := in.Aliased(n.Base, n.Name)
	if err != nil {
		return nil, err
	}
	// Align to the canonical D(G') scheme, streaming the full join's
	// batches straight into the aligned relation.
	s, err := Scheme(newGraph, in)
	if err != nil {
		return nil, err
	}
	it := algebra.OpenJoin(ctx, algebra.FullJoin, dg, r, edge.Pred)
	tr := budget.FromContext(ctx)
	aligned := relation.New("D(G)", s)
	err = func() error {
		defer it.Close()
		for {
			batch, err := it.Next()
			if err != nil {
				return err
			}
			if batch == nil {
				return nil
			}
			for _, t := range batch {
				p := t.Project(s)
				if err := tr.Charge(1, p.ApproxBytes()); err != nil {
					return err
				}
				aligned.Add(p)
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	out := relation.RemoveSubsumed(aligned.Distinct())
	out.Name = "D(G)"
	out.SortByKey()
	span.SetInt("tuples", int64(out.Len()))
	return out, nil
}

// leafDelta verifies newGraph = oldGraph + one leaf and returns the
// leaf name and its edge.
func leafDelta(oldGraph, newGraph *graph.QueryGraph) (string, graph.Edge, error) {
	if newGraph.NodeCount() != oldGraph.NodeCount()+1 {
		return "", graph.Edge{}, fmt.Errorf("fd: not a single-node extension (%d → %d nodes)",
			oldGraph.NodeCount(), newGraph.NodeCount())
	}
	var leaf string
	for _, n := range newGraph.Nodes() {
		if !oldGraph.HasNode(n) {
			leaf = n
			break
		}
	}
	if leaf == "" {
		return "", graph.Edge{}, fmt.Errorf("fd: new graph has no new node")
	}
	// All old nodes must keep their bases and edges.
	for _, n := range oldGraph.Nodes() {
		on, _ := oldGraph.Node(n)
		nn, ok := newGraph.Node(n)
		if !ok || nn.Base != on.Base {
			return "", graph.Edge{}, fmt.Errorf("fd: extension rebased node %q", n)
		}
	}
	if len(newGraph.Edges()) != len(oldGraph.Edges())+1 {
		return "", graph.Edge{}, fmt.Errorf("fd: extension must add exactly one edge")
	}
	for _, e := range oldGraph.Edges() {
		ne, ok := newGraph.EdgeBetween(e.A, e.B)
		if !ok || ne.Label() != e.Label() {
			return "", graph.Edge{}, fmt.Errorf("fd: extension changed edge %s—%s", e.A, e.B)
		}
	}
	neighbors := newGraph.Neighbors(leaf)
	if len(neighbors) != 1 {
		return "", graph.Edge{}, fmt.Errorf("fd: new node %q is not a leaf (degree %d)", leaf, len(neighbors))
	}
	edge, _ := newGraph.EdgeBetween(leaf, neighbors[0])
	return leaf, edge, nil
}

// ComputeIncremental computes D(G′) reusing a previous D(G) when the
// new graph is a single-leaf extension, falling back to Compute
// otherwise. oldDG and oldGraph may be nil on first use.
func ComputeIncremental(ctx context.Context, oldDG *relation.Relation, oldGraph, newGraph *graph.QueryGraph, in *relation.Instance) (*relation.Relation, error) {
	ctx, span := obs.StartSpan(ctx, "fd.compute_incremental")
	defer span.End()
	if oldDG != nil && oldGraph != nil {
		// Budget-aware routing: the full join's output contains every
		// old D(G) row AND every row of the new leaf's base relation
		// (matched or null-padded), and the alignment loop charges each
		// one — so the extension bound is the max of the two, tighter
		// than |D(G)| alone. Skip straight to a full computation when
		// that bound already exceeds the remaining headroom. "abort"
		// also routes through Compute: a D(G) cache hit charges only
		// the final result, and Compute's own abort check settles a
		// miss. leafDelta runs first so a non-extension never pays for
		// an estimate or a doomed ExtendLeaf call.
		if leaf, _, lerr := leafDelta(oldGraph, newGraph); lerr == nil {
			extendEst := int64(oldDG.Len())
			if n, ok := newGraph.Node(leaf); ok {
				if r, rerr := in.Aliased(n.Base, n.Base); rerr == nil && int64(r.Len()) > extendEst {
					extendEst = int64(r.Len())
				}
			}
			recomputeEst, estErr := estimateRows(newGraph, in, newGraph.IsTree())
			if estErr == nil && pickMaintenance(extendEst, recomputeEst, rowHeadroom(ctx)) == "cheap" {
				d, err := ExtendLeaf(ctx, oldDG, oldGraph, newGraph, in)
				switch {
				case err == nil:
					span.SetStr("mode", "extend_leaf")
					cIncExtend.Inc()
					// Memoize under the key of the state the result was
					// derived from (re-fingerprinted now, not up front).
					cacheStoreCurrent(newGraph, in, d)
					return d, nil
				case errors.Is(err, budget.ErrExceeded) || ctx.Err() != nil:
					// Out of budget or cancelled: a full recomputation can only
					// consume more — fail now instead of falling back.
					return nil, err
				}
			}
		}
	}
	span.SetStr("mode", "full")
	cIncFull.Inc()
	return Compute(ctx, newGraph, in)
}
