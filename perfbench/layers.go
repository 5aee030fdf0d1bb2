package main

// layerMetrics fills the traced run's per-layer metrics. Timings come
// from the tracer's spans (reported as median, tail and sample count),
// counts from before/after deltas of the program's public counters,
// and every ratio is reported next to its numerator and base.
func (r *runner) layerMetrics(m report, tr *tracer, toolMS [][]float64, before, after map[string]int64, w *windowStats, rec recovery) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	c := tr.counts

	// serve: HTTP latency minus the direct tool call for the same step.
	var self []float64
	for i, s := range r.sessions {
		if !s.inWindow || s.failed || toolMS[i] == nil {
			continue
		}
		for j, st := range s.steps {
			if toolMS[i][j] > 0 && s.stepMS[j] > 0 && (st.stateChanging() || st.op == "view" || st.op == "examples") {
				self = append(self, s.stepMS[j]-toolMS[i][j])
			}
		}
	}
	m.timing("serve.self", "ms", self)
	reqs := float64(len(r.tally.reqMS))
	m.set("serve.response_bytes_per_request", "bytes", ratio(float64(r.tally.respBytes), reqs))
	m.set("serve.requests", "count", reqs)
	m.timing("serve.watch_publish", "ms", tr.samples["serve.watch_publish"])

	// workspace
	for _, op := range []string{"corr", "walk", "chase", "filter", "rows", "target_view"} {
		m.timing("workspace."+op, "ms", tr.samples["workspace."+op])
	}
	m.set("workspace.rows_p99_ms", "ms", percentile(tr.samples["workspace.rows"], 99))
	m.timing("workspace.journal_append", "us", tr.samples["workspace.journal_append"])
	m.set("workspace.journal_bytes_per_append", "bytes", ratio(c["workspace.journal_bytes"], c["workspace.journal_appends"]+c["workspace.journals"]))
	m.set("workspace.journal_appends", "count", c["workspace.journal_appends"]+c["workspace.journals"])
	m.set("workspace.journal_compactions", "count", c["workspace.journal_compactions"])
	m.set("workspace.replay_s", "s", percentile(tr.samples["workspace.replay"], 50)/1e3)

	// csvio, discovery
	m.timing("csvio.load_dir", "ms", tr.samples["csvio.load_dir"])
	m.timing("discovery.build_knowledge", "ms", tr.samples["discovery.build_knowledge"])
	m.timing("discovery.value_index", "ms", tr.samples["discovery.value_index"])
	m.set("discovery.ind_pairs", "count", ratio(c["discovery.ind_pairs"], c["discovery.sessions"]))

	// core
	for _, name := range []string{"add_correspondence", "data_walk", "data_chase", "examples_on", "select_sufficient", "evolve_on_dg"} {
		m.timing("core."+name, "ms", tr.samples["core."+name])
	}
	m.set("core.alternatives_per_op", "count", ratio(c["core.alternatives"], c["core.alternative_ops"]))
	m.set("core.alternatives", "count", c["core.alternatives"])
	m.set("core.alternative_ops", "count", c["core.alternative_ops"])
	m.set("core.examples_built_per_edit", "count", ratio(c["core.examples_built"], c["core.evolve_edits"]))
	m.set("core.examples_kept_ratio", "ratio", ratio(c["core.examples_kept"], c["core.examples_built"]))
	m.set("core.examples_kept", "count", c["core.examples_kept"])
	m.set("core.examples_built", "count", c["core.examples_built"])

	// fd
	for _, name := range []string{"compute_cold", "compute_incremental", "maintain_rows", "compute_capped"} {
		m.timing("fd."+name, "ms", tr.samples["fd."+name])
	}
	m.set("fd.dg_rows", "count", ratio(c["fd.dg_rows"], c["fd.dg_graphs"]))
	m.set("fd.extend_ratio", "ratio", ratio(c["fd.extend"], c["fd.extend"]+c["fd.full"]))
	m.set("fd.extend_count", "count", c["fd.extend"])
	m.set("fd.full_count", "count", c["fd.full"])
	m.set("fd.delta_ratio", "ratio", ratio(c["fd.maintain_delta"], c["fd.maintain_delta"]+c["fd.maintain_recompute"]))
	m.set("fd.delta_count", "count", c["fd.maintain_delta"])
	m.set("fd.rebuild_count", "count", c["fd.maintain_recompute"])
	hits, misses := delta("fd.cache.hits"), delta("fd.cache.misses")
	m.set("fd.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("fd.cache_hits", "count", hits)
	m.set("fd.cache_lookups", "count", hits+misses)
	m.set("fd.spill_slowdown", "ratio", ratio(percentile(tr.samples["fd.compute_capped"], 50), percentile(tr.samples["fd.compute_cold"], 50)))

	// algebra
	m.timing("algebra.fk_join", "ms", tr.samples["algebra.fk_join"])
	m.timing("algebra.spill_join", "ms", tr.samples["algebra.spill_join"])
	m.set("algebra.probes_per_out_tuple", "ratio", ratio(c["algebra.probes"], c["algebra.out_tuples"]))
	m.set("algebra.probes", "count", c["algebra.probes"])
	m.set("algebra.out_tuples", "count", c["algebra.out_tuples"])

	// relation
	m.timing("relation.remove_subsumed", "ms", tr.samples["relation.remove_subsumed"])
	m.timing("relation.subsume_insert", "us", tr.samples["relation.subsume_insert"])

	// spill, over the window's HTTP loops
	loops := float64(len(w.loops))
	m.set("spill.bytes_per_loop", "bytes", ratio(delta("spill.bytes"), loops))
	m.set("spill.partitions_per_loop", "count", ratio(delta("spill.partitions"), loops))
	m.set("spill.recursions_per_loop", "count", ratio(delta("spill.recursions"), loops))
	m.set("spill.prefetch_hit_ratio", "ratio", ratio(delta("spill.prefetch_hits"), delta("spill.partitions")))
	m.set("spill.prefetch_hits", "count", delta("spill.prefetch_hits"))
	m.set("spill.partitions", "count", delta("spill.partitions"))
	m.set("spill.loops", "count", loops)

	// budget
	m.set("budget.peak_bytes_per_request", "bytes", ratio(c["budget.peak_bytes"], c["budget.requests"]))
	m.set("budget.requests", "count", c["budget.requests"])

	// Wall-clock latencies of the window, which the gated end-to-end
	// metrics leave out because host steal moves them between runs, and
	// the traced run's own CPU per loop, which beside the untraced
	// run's loop_cpu_ms shows what tracing cost.
	var loopMS, deliveries []float64
	for _, s := range w.loops {
		if !s.failed {
			loopMS = append(loopMS, s.loopMS)
			deliveries = append(deliveries, s.deliveries...)
		}
	}
	m.set("wall.loop_p50_ms", "ms", percentile(loopMS, 50))
	m.set("wall.loop_p90_ms", "ms", percentile(loopMS, 90))
	m.set("wall.loops_per_s", "1/s", ratio(float64(len(loopMS)), w.elapsed))
	m.set("wall.request_p50_ms", "ms", percentile(r.tally.reqMS, 50))
	m.set("wall.request_p99_ms", "ms", percentile(r.tally.reqMS, 99))
	m.set("wall.edit_p50_ms", "ms", percentile(r.tally.editMS, 50))
	m.set("wall.edit_p99_ms", "ms", percentile(r.tally.editMS, 99))
	m.set("wall.edits_per_s", "1/s", ratio(float64(len(r.tally.editMS)), w.elapsed))
	m.set("wall.watch_delivery_p50_ms", "ms", percentile(deliveries, 50))
	m.set("wall.recovery_s", "s", rec.wallS)
	m.set("traced.loop_cpu_ms", "ms", ratio(w.cpuSeconds*1e3, float64(len(loopMS))))
}
