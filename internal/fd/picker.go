package fd

// Budget-aware algorithm routing. Compute picks between the D(G)
// algorithms using the remaining budget headroom as a cost bound: a
// computation whose certain lower bound on charged rows already
// exceeds the headroom is refused up front ("abort") with the same
// typed error a doomed run would eventually hit. The maintenance
// paths (leaf extension, row deltas) choose between their cheap
// update and a full recomputation the same way.
//
// The estimates are true lower bounds, never heuristics: abort must
// only fire when the computation is guaranteed to exceed the budget,
// so an unlimited or generous budget routes exactly as before.

import (
	"context"

	"clio/internal/budget"
	"clio/internal/graph"
	"clio/internal/relation"
)

// rowHeadroom returns the remaining row headroom of the context's
// budget, or -1 when rows are unlimited.
func rowHeadroom(ctx context.Context) int64 {
	tr := budget.FromContext(ctx)
	if tr == nil {
		return -1
	}
	b := tr.Limits()
	if b.MaxRows <= 0 {
		return -1
	}
	rem := b.MaxRows - tr.Rows()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// estimateRows returns a certain lower bound on the rows any D(G)
// algorithm must charge for g over in.
//
// Tree graphs: the outer-join chain's output contains every row of
// every base relation (matched or null-padded), and the final
// alignment charges each output row, so at least max |R_n| rows are
// charged. Cyclic graphs: the lattice build and the subgraph algorithm
// both charge every association of every connected subset; the
// singleton subsets alone charge |R_n| rows per node, so at least
// sum |R_n| rows are charged.
func estimateRows(g *graph.QueryGraph, in *relation.Instance, isTree bool) (int64, error) {
	var max, sum int64
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		r, err := in.Aliased(n.Base, n.Base)
		if err != nil {
			return 0, err
		}
		size := int64(r.Len())
		sum += size
		if size > max {
			max = size
		}
	}
	if isTree {
		return max, nil
	}
	return sum, nil
}

// pickAlgo chooses the D(G) algorithm for Compute. estimate is a true
// lower bound on the rows the computation must charge; headroom is the
// remaining row budget (negative = unlimited); spill reports whether
// the budget has a spill directory.
//
//   - "abort": the lower bound already exceeds the headroom, so the
//     computation is guaranteed to fail its budget — refuse before
//     doing any join work. Never chosen under spill: with a spill
//     directory the caps bound resident state, charges are refunded as
//     state moves to disk, and the cumulative lower bound no longer
//     proves failure.
//   - "outer_join": tree query graphs.
//   - "subgraph": cyclic graphs under a spill directory — the subgraph
//     algorithm's accumulator can spill, the lattice build cannot.
//   - "lattice": cyclic graphs otherwise.
//
// Boundary convention (audited): budget.Tracker.Charge is
// charge-inclusive — charging exactly up to the cap succeeds and only
// a strict excess errors — so est == headroom is exactly affordable.
// Every comparison here and in pickMaintenance is therefore strict
// (`>` to refuse, `<=` to accept).
func pickAlgo(isTree bool, estimate, headroom int64, spill bool) string {
	switch {
	case !spill && headroom >= 0 && estimate > headroom:
		return "abort"
	case isTree:
		return "outer_join"
	case spill:
		return "subgraph"
	}
	return "lattice"
}

// pickMaintenance chooses how a maintained D(G) follows a change: the
// leaf extension of ComputeIncremental or the row delta of
// MaintainRows. cheapEst is a lower bound on the rows the cheap update
// must charge, fullEst a lower bound for recomputing from scratch, and
// headroom the remaining row budget (negative = unlimited).
//
//   - "cheap": the update fits the headroom (est == headroom is
//     affordable, see pickAlgo).
//   - "full": the update is guaranteed to bust the budget but a
//     recomputation might not — the old D(G) can exceed the base
//     relations after a blowup.
//   - "abort": both bounds exceed the headroom; no recomputation can
//     succeed.
func pickMaintenance(cheapEst, fullEst, headroom int64) string {
	if headroom < 0 || cheapEst <= headroom {
		return "cheap"
	}
	if fullEst > headroom {
		return "abort"
	}
	return "full"
}

// pickSpillReplay chooses the dgAccum finalize strategy from the
// spill-partition statistics the sinks recorded into the tracker
// (budget.Tracker.NotePartition), so the route is decided before any
// replay I/O is paid:
//
//   - "parallel": every partition's disk footprint fits the resident
//     caps, so the optimistic concurrent shard replay is expected to
//     succeed (a refusal still falls back to serial — the statistics
//     route, the budget decides).
//   - "serial": the largest partition's disk footprint already exceeds
//     a cap, so recursion is likely needed and only the serial path
//     recurses; attempting the parallel phase first would be wasted
//     I/O.
//
// Unlike the join side (algebra's pairReplayBound), no sound abort
// verdict exists here: replay charges only the deduplicated
// subsumption front, which can be arbitrarily smaller than the
// partition's disk footprint — so this picker routes, never refuses.
func pickSpillReplay(maxPartBytes, maxPartTuples, capBytes, capRows int64) string {
	if (capBytes > 0 && maxPartBytes > capBytes) || (capRows > 0 && maxPartTuples > capRows) {
		return "serial"
	}
	return "parallel"
}

// overBudget builds the typed error for an aborted computation: the
// same *budget.Error a doomed run would return once estimate rows had
// been charged.
func overBudget(ctx context.Context, estimate int64) error {
	tr := budget.FromContext(ctx)
	return &budget.Error{Limit: "rows", Max: tr.Limits().MaxRows, Got: tr.Rows() + estimate, Spill: tr.SpillState()}
}
