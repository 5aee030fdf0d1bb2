package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"clio/internal/algebra"
	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
	"clio/internal/workspace"
)

// The reference replays each session's script directly on a
// workspace.Tool over the same CSV directory, with no server in
// between, and compares the target view byte for byte with what the
// server answered. In a traced run the same replay also calls into
// each layer's public functions itself, with a span around every call,
// which is where the per-layer figures come from.

// span is one timed call into a layer, kept in memory and written out
// when the benchmark ends.
type span struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

// tracer records spans and per-layer samples. A nil tracer records
// nothing, so the untraced reference pays only for the calls it makes.
type tracer struct {
	epoch   time.Time
	trace   string
	parent  string
	spans   []span
	samples map[string][]float64 // ms by span name
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// time runs f inside a span named name and returns its duration in
// milliseconds.
func (t *tracer) time(name string, f func()) float64 {
	if t == nil {
		f()
		return 0
	}
	outer := t.parent
	t.parent = name
	start := time.Now()
	f()
	d := float64(time.Since(start)) / 1e6
	t.parent = outer
	t.spans = append(t.spans, span{Trace: t.trace, Name: name, Parent: outer,
		Start: float64(start.Sub(t.epoch)) / 1e6, Dur: d})
	t.samples[name] = append(t.samples[name], d)
	return d
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// counter reads one of the program's public counters.
func counter(name string) float64 {
	return float64(obs.SnapshotDefault().Counters[name])
}

// parseTarget builds the target relation from targetSpec the way the
// server parses a session's target spec.
func parseTarget() *schema.Relation {
	open := strings.IndexByte(targetSpec, '(')
	var attrs []schema.Attribute
	for _, a := range strings.Split(targetSpec[open+1:len(targetSpec)-1], ",") {
		attrs = append(attrs, schema.Attribute{Name: strings.TrimSpace(a)})
	}
	return schema.NewRelation(targetSpec[:open], attrs...)
}

// refSession is the direct replay of one session.
type refSession struct {
	in   *relation.Instance
	tool *workspace.Tool
	tr   *tracer
	// Traced runs only: the separately maintained D(G) and the spill
	// workload's capped budget.
	mat    *fd.Materialized
	capped fd.Budget
}

// openReference loads the session's CSV directory and builds its tool
// the way the server's session create does, checking the mined join
// knowledge and the chase value on the way.
func openReference(ctx context.Context, dir, chaseTitle string, tr *tracer) (*refSession, error) {
	var (
		in  *relation.Instance
		err error
	)
	tr.time("csvio.load_dir", func() { in, err = csvio.LoadDir(dir) })
	if err != nil {
		return nil, err
	}
	if tr != nil {
		pairs := counter("discovery.ind.pairs")
		tr.time("discovery.build_knowledge", func() { discovery.BuildKnowledge(ctx, in, true, 1) })
		tr.add("discovery.ind_pairs", counter("discovery.ind.pairs")-pairs)
		tr.add("discovery.sessions", 1)
		tr.time("discovery.value_index", func() { discovery.BuildValueIndex(ctx, in) })
	}
	tool := workspace.New(ctx, in, parseTarget(), true)
	var got []string
	for _, e := range tool.Knowledge.Edges() {
		got = append(got, edgeKey(e.From.String(), e.To.String()))
	}
	if err := checkEdges(got); err != nil {
		return nil, err
	}
	inReviews := false
	for _, occ := range tool.Index.Occurrences(value.Parse(chaseTitle)) {
		inReviews = inReviews || occ.Column.String() == "Reviews.title"
	}
	if !inReviews {
		return nil, fmt.Errorf("chase value %q does not occur in Reviews", chaseTitle)
	}
	if err := tool.Start("sales"); err != nil {
		return nil, err
	}
	return &refSession{in: in, tool: tool, tr: tr}, nil
}

// apply runs one step on the tool, decoding its args exactly as the
// server does. For a view it returns the canonical rows JSON. It
// returns the tool call's duration in milliseconds (0 when untraced or
// for steps with no tool work).
func (rs *refSession) apply(ctx context.Context, st step) (rows []byte, ms float64, err error) {
	var a struct {
		Spec, From, To, Column, Value, Kind, Pred, Relation string
		Values                                              []string
		Delete                                              bool
	}
	if len(st.args) > 0 {
		if err := json.Unmarshal(st.args, &a); err != nil {
			return nil, 0, err
		}
	}
	t, tr := rs.tool, rs.tr
	switch st.op {
	case "corr":
		c, perr := core.ParseCorrespondence(a.Spec)
		if perr != nil {
			return nil, 0, perr
		}
		if tr != nil {
			var alts []*core.Mapping
			tr.time("core.add_correspondence", func() {
				alts, err = core.AddCorrespondence(ctx, t.Active().Mapping, t.Knowledge, c, t.MaxWalkLen)
			})
			rs.noteAlternatives(len(alts))
		}
		ms = rs.timedOp("workspace.corr", func() error { return t.AddCorrespondence(ctx, c) }, &err)
	case "walk":
		if tr != nil {
			var opts []core.WalkOption
			tr.time("core.data_walk", func() {
				opts, err = core.DataWalk(ctx, t.Active().Mapping, t.Knowledge, a.From, a.To, t.MaxWalkLen)
			})
			rs.noteAlternatives(len(opts))
		}
		ms = rs.timedOp("workspace.walk", func() error { return t.Walk(ctx, a.From, a.To) }, &err)
	case "chase":
		v := value.Parse(a.Value)
		if tr != nil {
			var opts []core.ChaseOption
			tr.time("core.data_chase", func() {
				opts, err = core.DataChase(ctx, t.Active().Mapping, t.Index, a.Column, v)
			})
			rs.noteAlternatives(len(opts))
		}
		ms = rs.timedOp("workspace.chase", func() error { return t.Chase(ctx, a.Column, v) }, &err)
	case "undo":
		ms = rs.timedOp("workspace.undo", t.Undo, &err)
	case "filter":
		p, perr := expr.Parse(strings.TrimSpace(a.Pred))
		if perr != nil {
			return nil, 0, perr
		}
		ms = rs.timedOp("workspace.filter", func() error { return t.AddSourceFilter(ctx, p) }, &err)
	case "accept":
		ms = rs.timedOp("workspace.accept", t.Confirm, &err)
	case "rows":
		ms, err = rs.applyRows(ctx, a.Relation, a.Values, a.Delete)
	case "view":
		var view *relation.Relation
		ms = rs.timedOp("workspace.target_view", func() (verr error) {
			view, verr = t.TargetView(ctx)
			return verr
		}, &err)
		if err == nil {
			rows = mustJSON(renderRows(view))
		}
	case "examples":
		ms = rs.timedOp("workspace.examples", func() error {
			m := t.Active().Mapping
			dg, derr := m.DG(ctx, rs.in)
			if derr != nil {
				return derr
			}
			_, derr = core.ExamplesOn(ctx, m, rs.in, dg)
			return derr
		}, &err)
		if err == nil && tr != nil {
			err = rs.traceFinalMapping(ctx)
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", st.op, err)
	}
	return rows, ms, nil
}

// timedOp runs a tool call in a span (plain when untraced), storing its
// error in *errp.
func (rs *refSession) timedOp(name string, f func() error, errp *error) float64 {
	var err error
	ms := rs.tr.time(name, func() { err = f() })
	*errp = err
	return ms
}

func (rs *refSession) noteAlternatives(n int) {
	rs.tr.add("core.alternatives", float64(n))
	rs.tr.add("core.alternative_ops", 1)
}

// applyRows applies one edit like the server's rows op. Traced, it
// also maintains a separate D(G) materialization with fd.MaintainRows,
// evolves the illustration over it, and evaluates the target view as a
// watch publish would.
func (rs *refSession) applyRows(ctx context.Context, rel string, raw []string, del bool) (float64, error) {
	t, tr := rs.tool, rs.tr
	vals := make([]value.Value, len(raw))
	for i, c := range raw {
		vals[i] = value.Parse(c)
	}
	var prev core.Illustration
	if tr != nil {
		prev = t.Active().Illustration
	}
	var err error
	ms := rs.timedOp("workspace.rows", func() error { return t.ApplyRows(ctx, rel, vals, del) }, &err)
	if err != nil || tr == nil {
		return ms, err
	}
	m := t.Active().Mapping
	if fd.GraphReadsBase(m.Graph, rel) {
		// As in the tool, only an edit the mapping reads maintains D(G)
		// and evolves the illustration.
		if err := rs.traceMaintenance(ctx, m, prev, rel, vals, del); err != nil {
			return ms, err
		}
	}
	tr.time("serve.watch_publish", func() { _, err = t.TargetView(ctx) })
	return ms, err
}

// traceMaintenance times fd.MaintainRows on the bench's own
// materialization and core.EvolveOnDG over its result, for one edit
// already applied to the instance.
func (rs *refSession) traceMaintenance(ctx context.Context, m *core.Mapping, prev core.Illustration, rel string, vals []value.Value, del bool) error {
	tr := rs.tr
	tup := relation.NewTuple(rs.in.Relation(rel).Scheme(), vals...)
	var (
		dg   *relation.Relation
		mode string
		err  error
	)
	tr.time("fd.maintain_rows", func() {
		dg, rs.mat, mode, err = fd.MaintainRows(ctx, rs.mat, m.Graph, rs.in, rel, tup, del)
	})
	if err != nil {
		return err
	}
	tr.add("fd.maintain_"+mode, 1)
	built := counter("core.examples.built")
	var ev core.Evolved
	tr.time("core.evolve_on_dg", func() { ev, err = core.EvolveOnDG(ctx, prev, m, rs.in, dg) })
	if err != nil {
		return err
	}
	tr.add("core.examples_built", counter("core.examples.built")-built)
	tr.add("core.examples_kept", float64(len(ev.Examples)))
	tr.add("core.evolve_edits", 1)
	return nil
}

// traceFinalMapping times the fd, algebra and relation layers on the
// session's final mapping: a cold and (on the spill workload) a capped
// D(G) computation, the largest foreign-key join, and subsumption.
func (rs *refSession) traceFinalMapping(ctx context.Context) error {
	tr := rs.tr
	m := rs.tool.Active().Mapping
	dg, err := m.DG(ctx, rs.in)
	if err != nil {
		return err
	}
	var full core.Illustration
	tr.time("core.examples_on", func() { full, err = core.ExamplesOn(ctx, m, rs.in, dg) })
	if err != nil {
		return err
	}
	tr.time("core.select_sufficient", func() { core.SelectSufficient(ctx, m, full) })

	prevCap := fd.SetCacheCapacity(0)
	defer fd.SetCacheCapacity(prevCap)
	var cold *relation.Relation
	tr.time("fd.compute_cold", func() { cold, err = fd.Compute(ctx, m.Graph, rs.in) })
	if err != nil {
		return err
	}
	tr.add("fd.dg_rows", float64(cold.Len()))
	tr.add("fd.dg_graphs", 1)

	var pruned *relation.Relation
	tr.time("relation.remove_subsumed", func() { pruned = relation.RemoveSubsumed(cold) })
	ss := relation.NewSubsumeSet(pruned.Scheme())
	for _, tp := range pruned.Tuples() {
		start := time.Now()
		ss.Insert(tp)
		tr.samples["relation.subsume_insert"] = append(tr.samples["relation.subsume_insert"], float64(time.Since(start))/1e3)
	}

	l, r := rs.in.Relation("OrderLines"), rs.in.Relation("Orders")
	on := expr.Equals("OrderLines.oid", "Orders.oid")
	probes, outs := counter("algebra.join.probes"), counter("algebra.join.out_tuples")
	tr.time("algebra.fk_join", func() { _, err = algebra.JoinRelationsCtx(ctx, algebra.FullJoin, l, r, on) })
	if err != nil {
		return err
	}
	tr.add("algebra.probes", counter("algebra.join.probes")-probes)
	tr.add("algebra.out_tuples", counter("algebra.join.out_tuples")-outs)

	if rs.capped.MaxBytes > 0 {
		cctx := fd.WithBudget(ctx, rs.capped)
		tr.time("fd.compute_capped", func() { _, err = fd.Compute(cctx, m.Graph, rs.in) })
		if err != nil {
			return err
		}
		_, peak := fd.BudgetUsed(cctx)
		tr.add("budget.peak_bytes", float64(peak))
		tr.add("budget.requests", 1)
		jctx := fd.WithBudget(ctx, rs.capped)
		tr.time("algebra.spill_join", func() { _, err = algebra.JoinRelationsCtx(jctx, algebra.FullJoin, l, r, on) })
		if err != nil {
			return err
		}
	}
	return nil
}

// incremental times fd.ComputeIncremental for a graph-changing step,
// from the previous mapping's D(G) to the new one's, with the memo
// cache off so the full-recompute fallback is not a cache hit.
func (rs *refSession) incremental(ctx context.Context, prev *core.Mapping) error {
	if rs.tr == nil || prev.Graph.NodeCount() == 0 {
		return nil
	}
	next := rs.tool.Active().Mapping
	if next.Graph.NodeCount() == prev.Graph.NodeCount() {
		return nil
	}
	oldDG, err := prev.DG(ctx, rs.in)
	if err != nil {
		return err
	}
	prevCap := fd.SetCacheCapacity(0)
	defer fd.SetCacheCapacity(prevCap)
	ext, full := counter("fd.incremental.extend"), counter("fd.incremental.full")
	rs.tr.time("fd.compute_incremental", func() {
		_, err = fd.ComputeIncremental(ctx, oldDG, prev.Graph, next.Graph, rs.in)
	})
	rs.tr.add("fd.extend", counter("fd.incremental.extend")-ext)
	rs.tr.add("fd.full", counter("fd.incremental.full")-full)
	return err
}

// renderRows renders a relation like the server's view endpoint.
func renderRows(view *relation.Relation) [][]string {
	rows := make([][]string, 0, view.Len())
	for _, t := range view.Tuples() {
		row := make([]string, 0, view.Scheme().Arity())
		for i := 0; i < view.Scheme().Arity(); i++ {
			row = append(row, fmt.Sprint(t.At(i)))
		}
		rows = append(rows, row)
	}
	return rows
}

// replaySession runs a session's script on the reference tool, checks
// the final view against the server's and, when traced, journals every
// state-changing op through a bench-owned workspace.Journal with the
// server's default options. It returns the per-step tool durations.
// With timeReplay set it also times rebuilding the session from that
// journal, as a restarted server does.
func replaySession(ctx context.Context, s *session, tr *tracer, capped fd.Budget, journalDir string, timeReplay bool) ([]float64, error) {
	if tr != nil {
		tr.trace = fmt.Sprintf("a%d-l%d", s.analyst, s.loop)
	}
	rs, err := openReference(ctx, s.dir, s.src.chaseTitle, tr)
	if err != nil {
		return nil, err
	}
	rs.capped = capped
	var j *workspace.Journal
	if tr != nil {
		j = workspace.OpenJournal(journalDir, tr.trace, serverJournalOptions())
		defer j.Remove()
		j.Append(workspace.JournalRecord{Kind: "create", Args: createArgs(s.dir)})
	}
	ms := make([]float64, len(s.steps))
	var rows []byte
	for i, st := range s.steps {
		prev := rs.tool.Active().Mapping
		out, d, err := rs.apply(ctx, st)
		if err != nil {
			return nil, err
		}
		ms[i] = d
		if out != nil {
			rows = out
		}
		switch st.op {
		case "corr", "walk", "chase":
			if err := rs.incremental(ctx, prev); err != nil {
				return nil, err
			}
		}
		if j != nil && st.stateChanging() {
			rec := workspace.JournalRecord{Kind: "op", Op: st.op, Args: st.args}
			comp := counter("clio.journal.compactions")
			start := time.Now()
			j.Append(rec)
			tr.samples["workspace.journal_append"] = append(tr.samples["workspace.journal_append"], float64(time.Since(start))/1e3)
			tr.add("workspace.journal_compactions", counter("clio.journal.compactions")-comp)
			tr.add("workspace.journal_appends", 1)
		}
	}
	if j != nil {
		if fi, err := os.Stat(j.Path()); err == nil {
			tr.add("workspace.journal_bytes", float64(fi.Size()))
		}
		tr.add("workspace.journals", 1)
		if timeReplay {
			if err := timeJournalReplay(ctx, j.Path(), s, tr); err != nil {
				return nil, err
			}
		}
	}
	if !bytes.Equal(rows, s.viewRows) {
		return nil, fmt.Errorf("session %d/%d: HTTP view (%d bytes) differs from the direct workspace.Tool view (%d bytes)",
			s.analyst, s.loop, len(s.viewRows), len(rows))
	}
	return ms, nil
}

// serverJournalOptions mirrors the server's default journal options:
// fsync on every append, compaction every 64 ops.
func serverJournalOptions() workspace.JournalOptions {
	return workspace.JournalOptions{
		FsyncEvery:   1,
		CompactEvery: 64,
		Foldable:     []string{"walk", "chase", "filter", "accept"},
	}
}

// timeJournalReplay rebuilds a tool from a session journal, applying
// the create record and every surviving op in order, and records the
// wall time as workspace.replay.
func timeJournalReplay(ctx context.Context, path string, s *session, tr *tracer) error {
	var err error
	tr.time("workspace.replay", func() {
		var recs []workspace.JournalRecord
		recs, _, err = workspace.ReadJournal(path)
		if err != nil {
			return
		}
		var rs *refSession
		rs, err = openReference(ctx, s.dir, s.src.chaseTitle, nil)
		if err != nil {
			return
		}
		for _, rec := range recs[1:] {
			if _, _, err = rs.apply(ctx, step{op: rec.Op, args: rec.Args}); err != nil {
				return
			}
		}
	})
	return err
}
