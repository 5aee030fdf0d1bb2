package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/relation"
)

// Illustration-machinery instrumentation.
var (
	cExamplesBuilt  = obs.GetCounter("core.examples.built")
	cExamplesChosen = obs.GetCounter("core.examples.chosen")
	hSufficientNS   = obs.GetHistogram("core.sufficient.ns")
)

// Example is a mapping example (Definition 4.1): a data association
// d ∈ D(G) together with the target tuple t = Q_φ(M)(d) computed by
// the filter-free mapping. It is positive when d passes every source
// filter and t passes every target filter, negative otherwise.
type Example struct {
	// Assoc is the data association d.
	Assoc relation.Tuple
	// Target is the transformed tuple t.
	Target relation.Tuple
	// Positive classifies the example against the filters.
	Positive bool
	// Coverage is the sorted set of graph nodes d covers.
	Coverage []string
	// Inherited marks examples carried over from a previous
	// illustration by continuous evolution (Section 5.3); fresh
	// examples have it false.
	Inherited bool
}

// CoverageKey returns the canonical category key of the example.
func (e Example) CoverageKey() string { return fd.CoverageKey(e.Coverage) }

// Illustration is a set of examples of one mapping (Section 4.1).
type Illustration struct {
	Mapping  *Mapping
	Examples []Example
}

// AllExamples builds the complete illustration: one example per data
// association of the mapping's query graph.
func AllExamples(ctx context.Context, m *Mapping, in *relation.Instance) (Illustration, error) {
	ctx, span := obs.StartSpan(ctx, "core.all_examples")
	defer span.End()
	dg, err := m.DG(ctx, in)
	if err != nil {
		return Illustration{}, err
	}
	return ExamplesOn(ctx, m, in, dg)
}

// ExamplesOn builds the complete illustration over a precomputed D(G).
// Coverage is resolved in one pass over the relation.
func ExamplesOn(ctx context.Context, m *Mapping, in *relation.Instance, dg *relation.Relation) (Illustration, error) {
	_, span := obs.StartSpan(ctx, "core.examples_on")
	defer span.End()
	span.SetInt("associations", int64(dg.Len()))
	cExamplesBuilt.Add(int64(dg.Len()))
	covs, err := fd.CoverageAll(dg, m.Graph, in)
	if err != nil {
		return Illustration{}, err
	}
	tf := m.transformer()
	il := Illustration{Mapping: m, Examples: make([]Example, 0, dg.Len())}
	for i, d := range dg.Tuples() {
		t := tf.apply(d)
		pos := m.SatisfiesSourceFilters(d) && m.SatisfiesTargetFilters(t)
		il.Examples = append(il.Examples, Example{Assoc: d, Target: t, Positive: pos, Coverage: covs[i]})
	}
	return il, nil
}

// Requirement identifiers (see requirementsOf): what a sufficient
// illustration must demonstrate, per Definitions 4.2, 4.4, and 4.5.
const (
	reqGraph       = "G"  // some example with this coverage
	reqFilterPos   = "F+" // a positive example with this coverage
	reqFilterNeg   = "F-" // a negative example with this coverage
	reqCorrNonNull = "V+" // positive example, target attr non-null
	reqCorrNull    = "V0" // positive example, target attr null
)

// requirementsOf derives, from the complete example set, the
// requirement keys a sufficient illustration must cover, and for each
// example the set of keys it covers. A requirement exists only if some
// example satisfies it ("if there exists ... then I contains ...").
func requirementsOf(m *Mapping, all []Example) (reqs map[string]bool, covers [][]string) {
	reqs = map[string]bool{}
	covers = make([][]string, len(all))
	ts := m.TargetScheme()
	for i, e := range all {
		ck := e.CoverageKey()
		ks := []string{reqGraph + "|" + ck}
		if e.Positive {
			ks = append(ks, reqFilterPos+"|"+ck)
			for _, attr := range ts.Names() {
				if e.Target.Get(attr).IsNull() {
					ks = append(ks, reqCorrNull+"|"+ck+"|"+attr)
				} else {
					ks = append(ks, reqCorrNonNull+"|"+ck+"|"+attr)
				}
			}
		} else {
			ks = append(ks, reqFilterNeg+"|"+ck)
		}
		covers[i] = ks
		for _, k := range ks {
			reqs[k] = true
		}
	}
	return reqs, covers
}

// SufficientIllustration selects a small illustration that is
// sufficient for the mapping (Definition 4.6): it covers every
// category of D(G), every filter outcome per category, and every
// correspondence null/non-null behaviour per category. Selection is a
// greedy set cover (each example covers several requirements), which
// keeps the illustration close to minimal.
func SufficientIllustration(ctx context.Context, m *Mapping, in *relation.Instance) (Illustration, error) {
	ctx, span := obs.StartSpan(ctx, "core.sufficient_illustration")
	defer span.End()
	start := time.Now()
	defer hSufficientNS.ObserveSince(start)
	full, err := AllExamples(ctx, m, in)
	if err != nil {
		return Illustration{}, err
	}
	il := SelectSufficient(ctx, m, full)
	span.SetInt("examples", int64(len(il.Examples)))
	return il, nil
}

// SelectSufficient runs the greedy cover over a complete illustration.
func SelectSufficient(ctx context.Context, m *Mapping, full Illustration) Illustration {
	_, span := obs.StartSpan(ctx, "core.select_sufficient")
	defer span.End()
	reqs, covers := requirementsOf(m, full.Examples)
	span.SetInt("requirements", int64(len(reqs)))
	uncovered := len(reqs)
	covered := map[string]bool{}
	chosen := make([]bool, len(full.Examples))
	out := Illustration{Mapping: m}
	for uncovered > 0 {
		best, bestGain := -1, 0
		for i := range full.Examples {
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
			break // unreachable: every requirement is witnessed by construction
		}
		chosen[best] = true
		out.Examples = append(out.Examples, full.Examples[best])
		for _, k := range covers[best] {
			if !covered[k] {
				covered[k] = true
				uncovered--
			}
		}
	}
	span.SetInt("chosen", int64(len(out.Examples)))
	cExamplesChosen.Add(int64(len(out.Examples)))
	return out
}

// MissingRequirements reports the requirement keys the illustration
// fails to cover; empty means the illustration is sufficient
// (Definition 4.6). The complete example set is recomputed to know
// which requirements exist.
func (il Illustration) MissingRequirements(in *relation.Instance) ([]string, error) {
	full, err := AllExamples(context.Background(), il.Mapping, in)
	if err != nil {
		return nil, err
	}
	reqs, _ := requirementsOf(il.Mapping, full.Examples)
	_, haveCovers := requirementsOf(il.Mapping, il.Examples)
	covered := map[string]bool{}
	for _, ks := range haveCovers {
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

// IsSufficient reports whether the illustration is sufficient for its
// mapping over the instance.
func (il Illustration) IsSufficient(in *relation.Instance) (bool, error) {
	missing, err := il.MissingRequirements(in)
	if err != nil {
		return false, err
	}
	return len(missing) == 0, nil
}

// Positives returns the positive examples.
func (il Illustration) Positives() []Example {
	var out []Example
	for _, e := range il.Examples {
		if e.Positive {
			out = append(out, e)
		}
	}
	return out
}

// Negatives returns the negative examples.
func (il Illustration) Negatives() []Example {
	var out []Example
	for _, e := range il.Examples {
		if !e.Positive {
			out = append(out, e)
		}
	}
	return out
}

// Categories returns the distinct coverage keys present, sorted.
func (il Illustration) Categories() []string {
	set := map[string]bool{}
	for _, e := range il.Examples {
		set[e.CoverageKey()] = true
	}
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Focus returns the illustration induced by a focus tuple set
// (Definition 4.7): every example whose data association projects onto
// the focus relation's scheme to one of the focus tuples. The focus
// relation is named by its graph node name; focusTuples are tuples
// over that node's qualified scheme.
func Focus(ctx context.Context, m *Mapping, in *relation.Instance, focusNode string, focusTuples []relation.Tuple) (Illustration, error) {
	if !m.Graph.HasNode(focusNode) {
		return Illustration{}, fmt.Errorf("core: focus relation %q not in query graph", focusNode)
	}
	ctx, span := obs.StartSpan(ctx, "core.focus")
	defer span.End()
	span.SetStr("node", focusNode)
	span.SetInt("focus_tuples", int64(len(focusTuples)))
	full, err := AllExamples(ctx, m, in)
	if err != nil {
		return Illustration{}, err
	}
	if len(focusTuples) == 0 {
		return Illustration{Mapping: m}, nil
	}
	fs := focusTuples[0].Scheme()
	keys := map[string]bool{}
	for _, ft := range focusTuples {
		keys[ft.Key()] = true
	}
	out := Illustration{Mapping: m}
	for _, e := range full.Examples {
		p := e.Assoc.Project(fs)
		if keys[p.Key()] {
			out.Examples = append(out.Examples, e)
		}
	}
	return out, nil
}

// IsFocussedOn verifies Definition 4.7: the illustration contains
// every example induced by a data association whose projection onto
// the focus scheme is one of the focus tuples.
func (il Illustration) IsFocussedOn(in *relation.Instance, focusNode string, focusTuples []relation.Tuple) (bool, error) {
	want, err := Focus(context.Background(), il.Mapping, in, focusNode, focusTuples)
	if err != nil {
		return false, err
	}
	have := map[string]bool{}
	for _, e := range il.Examples {
		have[e.Assoc.Key()] = true
	}
	for _, e := range want.Examples {
		if !have[e.Assoc.Key()] {
			return false, nil
		}
	}
	return true, nil
}

// Merge returns an illustration containing both sets of examples,
// deduplicated by data association (il's copies win, preserving
// Inherited marks).
func (il Illustration) Merge(other Illustration) Illustration {
	out := Illustration{Mapping: il.Mapping}
	seen := map[string]bool{}
	for _, e := range il.Examples {
		if !seen[e.Assoc.Key()] {
			seen[e.Assoc.Key()] = true
			out.Examples = append(out.Examples, e)
		}
	}
	for _, e := range other.Examples {
		if !seen[e.Assoc.Key()] {
			seen[e.Assoc.Key()] = true
			out.Examples = append(out.Examples, e)
		}
	}
	return out
}

// String renders the illustration compactly: one line per example with
// its coverage tag and polarity.
func (il Illustration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "illustration of %s: %d examples\n", il.Mapping.Name, len(il.Examples))
	for _, e := range il.Examples {
		sign := "-"
		if e.Positive {
			sign = "+"
		}
		inh := ""
		if e.Inherited {
			inh = " (inherited)"
		}
		fmt.Fprintf(&b, "  [%s]%s%s %v => %v\n", strings.Join(e.Coverage, "+"), sign, inh, e.Assoc, e.Target)
	}
	return b.String()
}
