package fd

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/value"
)

// Delta maintenance of D(G) under single-row edits of a base relation.
//
// The join is multilinear in each relation argument: for a connected
// subset J whose nodes n_1..n_k scan the edited base B,
//
//	F(J)[B ⊎ {δ}] = Σ over S ⊆ {n_1..n_k} of F(J) with the nodes in S
//	                bound to the singleton {δ} and the rest bound to B,
//
// where Σ is multiset union. The S = ∅ term is F(J) before the edit,
// so the *delta* is the sum over the 2^k − 1 non-empty S. For an
// insert (instance already mutated, δ appended last) the non-S
// occurrences read the pre-edit prefix of B; for a delete (δ already
// removed) they read B as it is now — in both cases every relation the
// delta terms touch exists concretely, no old-state reconstruction.
// Each emitted association is padded to the D(G) scheme and pushed
// through an incremental subsumption set (relation.SubsumeSet), whose
// multiset counts make deletion exact: an association produced by two
// different subsets stays alive until both occurrences are removed.
//
// Cost is O(delta): the singleton-bound side of every join term has
// one tuple, so term size is bounded by the rows that actually join
// with δ, not by |B|. Degradation is explicit: too many connected
// subsets (MaxDeltaSubsets) answers with a plain Compute, and too many
// occurrences of B in one subset (maxDeltaOccurrences) or an
// inconsistency detected by the subsumption set falls back to a full
// rebuild in MaintainRows.

// Delta-vs-rebuild decision counters for row-edit maintenance.
var (
	cDeltaApply   = obs.GetCounter("fd.delta.apply")
	cDeltaRebuild = obs.GetCounter("fd.delta.rebuild")
)

// MaxDeltaSubsets bounds the connected-subset count a materialized
// D(G) will maintain by delta; past it every edit term enumeration
// costs more than it saves and MaintainRows computes D(G) instead.
const MaxDeltaSubsets = 256

// maxDeltaOccurrences bounds the occurrences of the edited base within
// one subset (the delta has 2^k − 1 terms in it).
const maxDeltaOccurrences = 8

// errDeltaDegrade marks an edit the delta path refuses (too wide, or
// the subsumption set detected an inconsistency). MaintainRows treats
// it as "rebuild instead", never as a user-facing failure.
var errDeltaDegrade = errors.New("fd: delta application degraded")

// Materialized is a D(G) kept current under row edits: the full
// subsumption state of every padded association, not just the maximal
// front, so deletes can be maintained exactly.
type Materialized struct {
	scheme  *relation.Scheme
	subsets [][]string
	set     *relation.SubsumeSet
	canon   string
}

// NewMaterialized computes D(G) from scratch into delta-maintainable
// form: every association of every connected subset, with the
// subsumption state that delete maintenance needs. It builds over the
// lattice of connected subsets (lattice.go): each F(J) extends an
// already computed F(J∖{l}) by one node, and the maximality of
// null-free associations comes from their lineage instead of
// classification. It charges the budget once per association, as any
// padded association is charged.
func NewMaterialized(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*Materialized, error) {
	return newMaterialized(ctx, g, in, g.ConnectedSubsets())
}

// newMaterialized is NewMaterialized over a precomputed enumeration of
// g's connected subsets, which the materialization keeps for ApplyRow.
func newMaterialized(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, subsets [][]string) (*Materialized, error) {
	if g.NodeCount() == 0 {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "fd.materialize")
	defer span.End()
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	span.SetInt("subsets", int64(len(subsets)))
	m := &Materialized{
		scheme:  s,
		subsets: subsets,
		set:     relation.NewSubsumeSet(s),
		canon:   canonGraph(g),
	}
	b, err := buildLattice(ctx, g, in, s, m.set)
	if err != nil {
		return nil, err
	}
	span.SetInt("lineage_rows", b.lineage)
	span.SetInt("classified_rows", b.classified)
	span.SetInt("probes", b.probes)
	span.SetInt("lineage_maximal", b.maximal)
	span.SetInt("tuples", int64(m.set.Len()))
	return m, nil
}

// Matches reports whether the materialization was built for a graph
// canonically equal to g (same nodes, bases, and edges).
func (m *Materialized) Matches(g *graph.QueryGraph) bool {
	return m != nil && m.canon == canonGraph(g)
}

// Rel renders the current D(G), sorted by canonical tuple key. The
// sort makes the relation independent of maintenance history: a
// delta-maintained, a rebuilt, and a journal-replayed session all
// produce byte-identical rows.
func (m *Materialized) Rel() *relation.Relation {
	return m.set.Rel("D(G)")
}

// drain runs plan to exhaustion, padding every output association to
// the D(G) scheme, charging the tracker, and inserting into (or, for
// the delete side of an edit, deleting from) the subsumption state.
func (m *Materialized) drain(ctx context.Context, plan algebra.Node, in *relation.Instance, tr *budget.Tracker, del bool) error {
	it, err := plan.Open(ctx, in)
	if err != nil {
		return err
	}
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
			p := t.PadTo(m.scheme)
			if err := tr.Charge(1, p.ApproxBytes()); err != nil {
				return err
			}
			if del {
				if !m.set.Delete(p) {
					// The multiset disagrees with the maintained state —
					// a bug or an unnoticed external mutation. Degrade to
					// rebuild rather than serve a diverged D(G).
					return fmt.Errorf("%w: delete of untracked association", errDeltaDegrade)
				}
			} else {
				m.set.Insert(p)
			}
		}
	}
}

// retuple rebinds t's values to scheme s positionally: the node's
// aliased scheme has the same arity and value layout as the base
// scheme t was built over, only the qualified names differ.
func retuple(s *relation.Scheme, t relation.Tuple) relation.Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		vals[i] = t.At(i)
	}
	return relation.NewTuple(s, vals...)
}

// ApplyRow folds one already-applied row edit of base into the
// materialized state: t was appended to base (del=false) or removed
// from it (del=true) *before* this call. On any error the state is
// partially updated and must be discarded; MaintainRows handles that.
func (m *Materialized) ApplyRow(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, del bool) error {
	if err := fault.Inject("fd.delta.apply"); err != nil {
		return err
	}
	ctx, span := obs.StartSpan(ctx, "fd.delta_apply")
	defer span.End()
	span.SetStr("base", base)
	tr := budget.FromContext(ctx)
	for _, sub := range m.subsets {
		if err := ctx.Err(); err != nil {
			return err
		}
		var occ []string
		for _, name := range sub {
			if n, ok := g.Node(name); ok && n.Base == base {
				occ = append(occ, name)
			}
		}
		if len(occ) == 0 {
			continue
		}
		if len(occ) > maxDeltaOccurrences {
			return fmt.Errorf("%w: %d occurrences of %s in subset {%s}",
				errDeltaDegrade, len(occ), base, strings.Join(sub, ","))
		}
		// Every non-empty S ⊆ occ contributes one join term with the S
		// nodes bound to the singleton {t} and the rest to the base
		// without t (its pre-insert prefix, or its current post-delete
		// content).
		for mask := 1; mask < 1<<len(occ); mask++ {
			bind := map[string]algebra.Node{}
			for i, name := range occ {
				aliased, err := in.Aliased(base, name)
				if err != nil {
					return err
				}
				if mask&(1<<i) != 0 {
					one := relation.New(name, aliased.Scheme())
					one.Add(retuple(aliased.Scheme(), t))
					bind[name] = algebra.Materialized{Label: name + "δ", Rel: one}
				} else if !del {
					bind[name] = algebra.Materialized{Label: name + "∖δ", Rel: aliased.Prefix(aliased.Len() - 1)}
				}
				// del case, i ∉ S: the default scan already reads the
				// post-delete base — exactly the binding the delete
				// decomposition needs.
			}
			plan, err := associationPlanWith(g, sub, bind)
			if err != nil {
				return err
			}
			if err := m.drain(ctx, plan, in, tr, del); err != nil {
				return err
			}
		}
	}
	span.SetInt("tuples", int64(m.set.Len()))
	return nil
}

// GraphReadsBase reports whether any node of g scans the named base
// relation — edits to other relations cannot change D(G).
func GraphReadsBase(g *graph.QueryGraph, base string) bool {
	for _, name := range g.Nodes() {
		if n, ok := g.Node(name); ok && n.Base == base {
			return true
		}
	}
	return false
}

// MaintainRows updates a D(G) after one row edit of base (t inserted
// into or deleted from the instance, which is already mutated). It
// routes between the O(delta) application and a full rebuild with the
// same budget-headroom framework as the other pickers, returning the
// refreshed relation, the materialization to keep for the next edit,
// and the chosen mode ("delta" or "recompute") — which is also left on
// the context's notes scratchpad as "dg_maint" for explain surfaces.
// A graph with more than MaxDeltaSubsets connected subsets, which the
// delta path refuses, is answered by Compute with a nil
// materialization.
//
// Error contract: on a budget abort or context cancellation the
// returned materialization is nil and the caller must treat any prior
// one as invalid (a delta may have half-applied). Any other delta
// failure degrades to a rebuild internally.
func MaintainRows(ctx context.Context, mat *Materialized, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, del bool) (*relation.Relation, *Materialized, string, error) {
	ctx, span := obs.StartSpan(ctx, "fd.maintain_rows")
	defer span.End()
	var subsets [][]string
	var ok bool
	if mat.Matches(g) {
		subsets = mat.subsets
		ok = len(subsets) <= MaxDeltaSubsets
	} else {
		subsets, ok = g.ConnectedSubsetsAtMost(MaxDeltaSubsets)
	}
	if !ok {
		// The delta path refuses a graph this wide, so a
		// materialization of it could never be used: answer with a
		// plain computation and keep nothing.
		d, err := Compute(ctx, g, in)
		if err != nil {
			return nil, nil, "", err
		}
		return recomputed(ctx, span, d), nil, "recompute", nil
	}
	rebuildEst, err := estimateRows(g, in, g.IsTree())
	if err != nil {
		return nil, nil, "", err
	}
	if mat.Matches(g) {
		// Certain lower bound for the delta: every singleton subset
		// over the edited base emits the delta tuple itself once.
		var deltaEst int64
		for _, name := range g.Nodes() {
			if n, ok := g.Node(name); ok && n.Base == base {
				deltaEst++
			}
		}
		switch pickMaintenance(deltaEst, rebuildEst, rowHeadroom(ctx)) {
		case "cheap":
			aerr := mat.ApplyRow(ctx, g, in, base, t, del)
			if aerr == nil {
				span.SetStr("mode", "delta")
				cDeltaApply.Inc()
				obs.Note(ctx, "dg_maint", "delta")
				d := mat.Rel()
				cacheStoreCurrent(g, in, d)
				return d, mat, "delta", nil
			}
			if errors.Is(aerr, budget.ErrExceeded) || ctx.Err() != nil {
				// A rebuild can only consume more; fail now. The
				// half-applied materialization dies with the nil return.
				return nil, nil, "", aerr
			}
			// Anything else (degradation, plan error) falls through to
			// the rebuild below.
		case "abort":
			return nil, nil, "", overBudget(ctx, rebuildEst)
		}
	}
	m2, err := newMaterialized(ctx, g, in, subsets)
	if err != nil {
		return nil, nil, "", err
	}
	d := m2.Rel()
	cacheStoreCurrent(g, in, d)
	return recomputed(ctx, span, d), m2, "recompute", nil
}

// recomputed records a from-scratch answer of MaintainRows on its span,
// the rebuild counter and the notes scratchpad, and returns d.
func recomputed(ctx context.Context, span *obs.Span, d *relation.Relation) *relation.Relation {
	span.SetStr("mode", "recompute")
	cDeltaRebuild.Inc()
	obs.Note(ctx, "dg_maint", "recompute")
	return d
}
