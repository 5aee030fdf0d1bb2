package core

import (
	"sort"

	"clio/internal/relation"
)

// Sufficient-illustration selection (Definition 4.6). A sufficient
// illustration must demonstrate, for every coverage class J of D(G)
// that occurs:
//
//	G|J        some example with coverage J                  (Def. 4.2)
//	F+|J, F-|J a positive / negative example with coverage J (Def. 4.4)
//	V+|J|A     a positive example whose target attribute A is non-null
//	V0|J|A     a positive example whose target attribute A is null
//	                                                         (Def. 4.5)
//
// A requirement exists only if some example satisfies it ("if there
// exists ... then I contains ..."). Which requirements an example
// covers depends on nothing but its requirement signature: coverage
// class, polarity, and (when positive) the null mask of its target
// tuple. Selection therefore classifies each example once by
// signature, with no per-example string, and works on the few classes
// instead of the many examples. Requirement IDs are small integers;
// the textual keys above are rendered only for MissingRequirements.

// Requirement kinds, in ID slot order (see signatures.reqID).
const (
	reqGraph       = iota // some example with this coverage
	reqFilterPos          // a positive example with this coverage
	reqFilterNeg          // a negative example with this coverage
	reqCorrNonNull        // positive example, target attr non-null
	reqCorrNull           // positive example, target attr null
)

var reqTags = [...]string{"G", "F+", "F-", "V+", "V0"}

// signatures interns examples into requirement-signature classes and
// coverage classes. Class numbers follow first appearance.
type signatures struct {
	attrs   []string         // target attribute names
	covKeys []string         // coverage class → fd.CoverageKey
	covIdx  map[string]int32 // fd.CoverageKey → coverage class
	sigIdx  map[string]int32 // signature bytes → signature class
	reqs    [][]int32        // signature class → requirement IDs it covers
	buf     []byte           // scratch signature bytes
	ts      *relation.Scheme // target scheme tpos was resolved for
	tpos    []int            // attrs' positions in ts (-1 when absent)
}

func newSignatures(m *Mapping) *signatures {
	return &signatures{
		attrs:  m.TargetScheme().Names(),
		covIdx: map[string]int32{},
		sigIdx: map[string]int32{},
	}
}

// stride is the number of requirement IDs per coverage class: G, F+,
// F-, then V+ and V0 for each target attribute.
func (s *signatures) stride() int { return 3 + 2*len(s.attrs) }

// reqID numbers the requirement of the given kind on coverage class
// cov (and target attribute attr, for the V kinds).
func (s *signatures) reqID(kind int, cov int32, attr int) int32 {
	slot := kind
	if kind >= reqCorrNonNull {
		slot = 3 + 2*attr + (kind - reqCorrNonNull)
	}
	return cov*int32(s.stride()) + int32(slot)
}

// reqString renders a requirement ID as its textual key.
func (s *signatures) reqString(id int32) string {
	stride := int32(s.stride())
	cov, slot := id/stride, int(id%stride)
	if slot < 3 {
		return reqTags[slot] + "|" + s.covKeys[cov]
	}
	attr, kind := (slot-3)/2, reqCorrNonNull+(slot-3)%2
	return reqTags[kind] + "|" + s.covKeys[cov] + "|" + s.attrs[attr]
}

// space bounds the requirement IDs of the classes interned so far.
func (s *signatures) space() int { return len(s.covKeys) * s.stride() }

// classOf interns e's requirement signature and returns its class.
// The signature bytes are a polarity byte, for positives the target
// null mask (one bit per target attribute, no arity cap), then the
// coverage key. The key is looked up without allocating; only a new
// class allocates.
func (s *signatures) classOf(e Example) int32 {
	b := s.buf[:0]
	if e.Positive {
		b = append(b, 1)
		b = s.appendNullMask(b, e.Target)
	} else {
		b = append(b, 0)
	}
	prefix := len(b)
	b = appendCoverageKey(b, e.Coverage)
	s.buf = b
	if c, ok := s.sigIdx[string(b)]; ok {
		return c
	}
	cov, ok := s.covIdx[string(b[prefix:])]
	if !ok {
		cov = int32(len(s.covKeys))
		key := string(b[prefix:])
		s.covIdx[key] = cov
		s.covKeys = append(s.covKeys, key)
	}
	rs := []int32{s.reqID(reqGraph, cov, 0)}
	if e.Positive {
		rs = append(rs, s.reqID(reqFilterPos, cov, 0))
		for a := range s.attrs {
			kind := reqCorrNonNull
			if b[1+a/8]&(1<<(a%8)) != 0 {
				kind = reqCorrNull
			}
			rs = append(rs, s.reqID(kind, cov, a))
		}
	} else {
		rs = append(rs, s.reqID(reqFilterNeg, cov, 0))
	}
	c := int32(len(s.reqs))
	s.sigIdx[string(b)] = c
	s.reqs = append(s.reqs, rs)
	return c
}

// appendNullMask appends one bit per target attribute, set when t is
// null there. Attribute positions are resolved once per target
// scheme; a target lacking an attribute panics, as Tuple.Get does.
func (s *signatures) appendNullMask(b []byte, t relation.Tuple) []byte {
	if sch := t.Scheme(); sch != s.ts || s.tpos == nil {
		s.ts, s.tpos = sch, make([]int, len(s.attrs))
		for a, name := range s.attrs {
			s.tpos[a] = sch.Index(name)
		}
	}
	var byt byte
	for a, p := range s.tpos {
		if p < 0 {
			t.Get(s.attrs[a])
		}
		if t.At(p).IsNull() {
			byt |= 1 << (a % 8)
		}
		if a%8 == 7 || a == len(s.tpos)-1 {
			b = append(b, byt)
			byt = 0
		}
	}
	return b
}

// appendCoverageKey appends fd.CoverageKey(cov) — the node names in
// sorted order joined with "+" — without allocating when cov is
// already sorted, as every computed coverage is.
func appendCoverageKey(b []byte, cov []string) []byte {
	if !sort.StringsAreSorted(cov) {
		cov = append([]string(nil), cov...)
		sort.Strings(cov)
	}
	for i, n := range cov {
		if i > 0 {
			b = append(b, '+')
		}
		b = append(b, n...)
	}
	return b
}

// classify interns every example, returning each example's signature
// class and each class's first member.
func (s *signatures) classify(exs []Example) (classOf []int32, first []int) {
	classOf = make([]int32, len(exs))
	for i, e := range exs {
		c := s.classOf(e)
		if int(c) == len(first) {
			first = append(first, i)
		}
		classOf[i] = c
	}
	return classOf, first
}

// greedyCover completes a set cover of every requirement the examples
// witness, starting from the pre-chosen examples (indices into exs),
// and returns the examples it adds in pick order plus the number of
// requirements.
//
// It is the row-by-row greedy — repeatedly pick the first unchosen
// example with strictly the largest number of uncovered requirements
// — run over signature classes. Members of one class cover identical
// requirements, so they tie and the greedy can only pick a class's
// first unchosen member. Once any member is chosen the class covers
// nothing new and no member can be picked again (a pick needs a gain
// above zero). A class with positive gain thus has no chosen member,
// and its first member is its lowest index; the strict-> scan over
// classes in first-appearance order therefore picks the same examples
// in the same order as the scan over examples.
func greedyCover(m *Mapping, exs []Example, pre []int) (picks []int, requirements int) {
	s := newSignatures(m)
	classOf, first := s.classify(exs)
	exists := make([]bool, s.space())
	covered := make([]bool, s.space())
	for _, rs := range s.reqs {
		for _, r := range rs {
			if !exists[r] {
				exists[r] = true
				requirements++
			}
		}
	}
	uncovered := requirements
	for _, i := range pre {
		for _, r := range s.reqs[classOf[i]] {
			if !covered[r] {
				covered[r] = true
				uncovered--
			}
		}
	}
	for uncovered > 0 {
		best, bestGain := -1, 0
		for c, rs := range s.reqs {
			gain := 0
			for _, r := range rs {
				if !covered[r] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			break // unreachable: every requirement is witnessed by construction
		}
		picks = append(picks, first[best])
		for _, r := range s.reqs[best] {
			if !covered[r] {
				covered[r] = true
				uncovered--
			}
		}
	}
	return picks, requirements
}

// missingRequirements renders, sorted, the requirements the examples
// of full witness that none of have covers.
func missingRequirements(m *Mapping, full, have []Example) []string {
	s := newSignatures(m)
	s.classify(full)
	witnessed := len(s.reqs)
	haveOf, _ := s.classify(have)
	exists := make([]bool, s.space())
	for _, rs := range s.reqs[:witnessed] {
		for _, r := range rs {
			exists[r] = true
		}
	}
	for _, c := range haveOf {
		for _, r := range s.reqs[c] {
			exists[r] = false
		}
	}
	var missing []string
	for r, x := range exists {
		if x {
			missing = append(missing, s.reqString(int32(r)))
		}
	}
	sort.Strings(missing)
	return missing
}
