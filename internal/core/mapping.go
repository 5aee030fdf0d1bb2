package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// Mapping is the paper's Definition 3.14: a query graph G over source
// relation occurrences, value correspondences V into one target
// relation, source filters C_S (predicates over data associations),
// and target filters C_T (predicates over target tuples). Its
// semantics is the mapping query
//
//	select * from
//	  ( select v_1(...) as B_1, ..., v_m(...) as B_m
//	    from D(G) where C_S )
//	where C_T
type Mapping struct {
	// Name labels the mapping (workspaces display it).
	Name string
	// Target is the target relation scheme this mapping populates.
	Target *schema.Relation
	// Graph is the connected query graph over source occurrences.
	Graph *graph.QueryGraph
	// Corrs are the value correspondences, at most one per target
	// attribute.
	Corrs []Correspondence
	// SourceFilters is C_S: predicates over source attributes,
	// evaluated against data associations.
	SourceFilters []expr.Expr
	// TargetFilters is C_T: predicates over target attributes,
	// evaluated against transformed tuples.
	TargetFilters []expr.Expr
}

// NewMapping creates an empty mapping onto the target relation.
func NewMapping(name string, target *schema.Relation) *Mapping {
	return &Mapping{Name: name, Target: target, Graph: graph.New()}
}

// Clone returns an independent copy (expressions are shared — they are
// immutable).
func (m *Mapping) Clone() *Mapping {
	return &Mapping{
		Name:          m.Name,
		Target:        m.Target,
		Graph:         m.Graph.Clone(),
		Corrs:         append([]Correspondence(nil), m.Corrs...),
		SourceFilters: append([]expr.Expr(nil), m.SourceFilters...),
		TargetFilters: append([]expr.Expr(nil), m.TargetFilters...),
	}
}

// TargetScheme returns the qualified target scheme (Kids.ID, ...).
func (m *Mapping) TargetScheme() *relation.Scheme {
	return relation.SchemeFor(m.Target)
}

// CorrFor returns the correspondence populating the named target
// attribute, if any.
func (m *Mapping) CorrFor(attr string) (Correspondence, bool) {
	for _, c := range m.Corrs {
		if c.Target.Attr == attr {
			return c, true
		}
	}
	return Correspondence{}, false
}

// Validate checks structural well-formedness: the graph is connected,
// edge predicates are strong and reference only their endpoints,
// correspondences target existing attributes of the target relation
// and read columns of graph nodes, and filters reference resolvable
// columns.
func (m *Mapping) Validate(in *relation.Instance) error {
	if m.Graph.NodeCount() == 0 {
		return fmt.Errorf("core: mapping %q has an empty query graph", m.Name)
	}
	if !m.Graph.Connected() {
		return fmt.Errorf("core: mapping %q has a disconnected query graph", m.Name)
	}
	s, err := fd.Scheme(m.Graph, in)
	if err != nil {
		return err
	}
	for _, e := range m.Graph.Edges() {
		endpoints := map[string]bool{e.A: true, e.B: true}
		for _, col := range e.Pred.Columns(nil) {
			ref, err := schema.ParseColumnRef(col)
			if err != nil {
				return fmt.Errorf("core: edge %s—%s references malformed column %q", e.A, e.B, col)
			}
			if !endpoints[ref.Relation] {
				return fmt.Errorf("core: edge %s—%s references foreign node %q", e.A, e.B, ref.Relation)
			}
			if !s.Has(col) {
				return fmt.Errorf("core: edge %s—%s references unknown column %q", e.A, e.B, col)
			}
		}
		if !expr.IsStrong(e.Pred, s) {
			return fmt.Errorf("core: edge %s—%s predicate %q is not strong", e.A, e.B, e.Pred)
		}
	}
	seen := map[string]bool{}
	for _, c := range m.Corrs {
		if c.Target.Relation != m.Target.Name {
			return fmt.Errorf("core: correspondence %v targets foreign relation", c)
		}
		if !m.Target.HasAttr(c.Target.Attr) {
			return fmt.Errorf("core: correspondence %v targets unknown attribute", c)
		}
		if seen[c.Target.Attr] {
			return fmt.Errorf("core: duplicate correspondence for %s", c.Target)
		}
		seen[c.Target.Attr] = true
		for _, col := range c.SourceColumns() {
			if !s.Has(col) {
				return fmt.Errorf("core: correspondence %v reads column %q outside the query graph", c, col)
			}
		}
	}
	for _, f := range m.SourceFilters {
		for _, col := range f.Columns(nil) {
			if !s.Has(col) {
				return fmt.Errorf("core: source filter %q reads unknown column %q", f, col)
			}
		}
	}
	ts := m.TargetScheme()
	for _, f := range m.TargetFilters {
		for _, col := range f.Columns(nil) {
			if !ts.Has(col) {
				return fmt.Errorf("core: target filter %q reads unknown column %q", f, col)
			}
		}
	}
	return nil
}

// DG computes the data associations D(G) of the mapping's query graph.
// Tracing spans nest under the span carried by ctx.
func (m *Mapping) DG(ctx context.Context, in *relation.Instance) (*relation.Relation, error) {
	return fd.Compute(ctx, m.Graph, in)
}

// Transform applies the value correspondences to one data association,
// yielding a target tuple (attributes without a correspondence are
// null). This is Q_φ(M)(d): the transformation without filters.
func (m *Mapping) Transform(d relation.Tuple) relation.Tuple {
	return m.transformer().apply(d)
}

// transformer is Transform with the target scheme built and each
// correspondence's target position resolved once, for callers that
// transform a whole D(G). Not safe for concurrent use.
type transformer struct {
	corrs []Correspondence
	ts    *relation.Scheme
	pos   []int
	vals  []value.Value
}

func (m *Mapping) transformer() *transformer {
	ts := m.TargetScheme()
	pos := make([]int, len(m.Corrs))
	for i, c := range m.Corrs {
		pos[i] = ts.Index(c.Target.String())
	}
	return &transformer{corrs: m.Corrs, ts: ts, pos: pos, vals: make([]value.Value, ts.Arity())}
}

// apply transforms one data association (see Transform).
func (tf *transformer) apply(d relation.Tuple) relation.Tuple {
	clear(tf.vals)
	for i, c := range tf.corrs {
		if p := tf.pos[i]; p >= 0 {
			tf.vals[p] = c.Apply(d)
		}
	}
	// NewTuple copies, so the scratch values are free for the next call.
	return relation.NewTuple(tf.ts, tf.vals...)
}

// SatisfiesSourceFilters reports whether d satisfies every C_S
// predicate (3VL: unknown fails).
func (m *Mapping) SatisfiesSourceFilters(d relation.Tuple) bool {
	for _, f := range m.SourceFilters {
		if expr.Truth(f, d) != value.True {
			return false
		}
	}
	return true
}

// SatisfiesTargetFilters reports whether target tuple t satisfies
// every C_T predicate.
func (m *Mapping) SatisfiesTargetFilters(t relation.Tuple) bool {
	for _, f := range m.TargetFilters {
		if expr.Truth(f, t) != value.True {
			return false
		}
	}
	return true
}

// Evaluate runs the mapping query: D(G), source filters,
// transformation, target filters, duplicate elimination. The result is
// the subset of the target relation this mapping produces.
func (m *Mapping) Evaluate(in *relation.Instance) (*relation.Relation, error) {
	d, err := m.DG(context.Background(), in)
	if err != nil {
		return nil, err
	}
	return m.EvaluateOn(d), nil
}

// EvaluateOn runs the mapping query over an already-computed D(G).
func (m *Mapping) EvaluateOn(dg *relation.Relation) *relation.Relation {
	tf := m.transformer()
	out := relation.New(m.Target.Name, tf.ts)
	for _, d := range dg.Tuples() {
		if !m.SatisfiesSourceFilters(d) {
			continue
		}
		t := tf.apply(d)
		if !m.SatisfiesTargetFilters(t) {
			continue
		}
		out.Add(t)
	}
	return out.Distinct()
}

// MappedAttrs returns the target attribute names that have a
// correspondence, in target-scheme order.
func (m *Mapping) MappedAttrs() []string {
	var out []string
	for _, a := range m.Target.Attrs {
		if _, ok := m.CorrFor(a.Name); ok {
			out = append(out, a.Name)
		}
	}
	return out
}

// Relations returns the graph's node names, sorted.
func (m *Mapping) Relations() []string {
	out := m.Graph.Nodes()
	sort.Strings(out)
	return out
}

// String renders a compact summary of the mapping.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping %s -> %s\n", m.Name, m.Target.Name)
	b.WriteString(m.Graph.String())
	for _, c := range m.Corrs {
		fmt.Fprintf(&b, "  corr: %s\n", c)
	}
	for _, f := range m.SourceFilters {
		fmt.Fprintf(&b, "  where (source): %s\n", f)
	}
	for _, f := range m.TargetFilters {
		fmt.Fprintf(&b, "  where (target): %s\n", f)
	}
	return b.String()
}
