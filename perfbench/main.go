// Command perfbench is the end-to-end benchmark of the paper's
// interactive mapping loop against an in-process clio serve. See
// README.md for the workloads, the loop script and the metrics.
//
//	go run . --workload explore --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/serve"
)

// workload is one traffic mix.
type workload struct {
	name     string
	analysts int
	// edits per session, against editRels; readEvery follows every Nth
	// edit with a view or illustration read.
	edits     int
	editRels  []string
	readEvery int
	// capMultiple > 0 runs the server with the D(G) memo cache off and
	// a resident byte cap of capMultiple × the final D(G)'s bytes.
	capMultiple float64
}

var workloads = map[string]workload{
	// Two analysts run the whole loop with a few edits: session create
	// (csvio, discovery), alternatives and illustrations (core), cold
	// and incremental D(G) (fd, algebra, relation). No spill.
	"explore": {name: "explore", analysts: 2, edits: 5, editRels: []string{"OrderLines", "Orders"}},
	// One analyst builds the mapping, then streams edits with a read
	// every 10th: delta maintenance, the journal and watch publishing.
	// With the script's other ops a session journals about 70 ops, past
	// the server's compaction point of 64.
	"edit": {name: "edit", analysts: 1, edits: 60, editRels: []string{"OrderLines", "Orders"}, readEvery: 10},
	// One analyst runs the loop under a resident cap with the memo
	// cache off, so every D(G) recompute spills. Its edits touch only
	// Reviews, which the mapping never reads: maintaining D(G) under a
	// cap aborts with 413 today. At 2x the final D(G)'s bytes a corr
	// aborts with 413; near 4x whether one computation spills depends
	// on the seed, which doubles the spill work between runs; at 3x the
	// seeds tried all spill the same partitions per loop.
	"spill": {name: "spill", analysts: 1, edits: 5, editRels: []string{"Reviews"}, capMultiple: 3},
}

// runner holds one benchmark run's state.
type runner struct {
	wl      workload
	seed    int64
	secs    int
	traced  bool
	runDir  string
	dataDir string

	journalDir string
	spillDir   string
	cfg        serve.Config
	srv        *serve.Server
	ts         *httptest.Server
	capBytes   int64

	tally    tally
	sessions []*session
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: explore, edit or spill")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 15, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore|edit|spill --seed N --seconds S --trace 0|1")
		return 2
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r := &runner{wl: wl, seed: *seed, secs: *secs, traced: *trace == 1, runDir: root}
	defer os.RemoveAll(root)
	out, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

func (r *runner) run() (*result, error) {
	ctx := context.Background()
	setup, err := r.setupMedian(ctx)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.stopServer()

	before := obs.SnapshotDefault().Counters
	win, err := r.window(ctx)
	if err != nil {
		return nil, err
	}
	after := obs.SnapshotDefault().Counters

	var checks []string
	rec, err := r.closeAndRestart(ctx)
	if err != nil {
		checks = append(checks, err.Error())
	}
	checks = append(checks, r.sessionChecks(before, after)...)

	var tr *tracer
	if r.traced {
		tr = newTracer()
	}
	toolMS, err := r.references(ctx, tr)
	if err != nil {
		checks = append(checks, err.Error())
	}
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	for _, e := range r.tally.errs {
		fmt.Fprintln(os.Stderr, "request failed:", e)
	}

	m := report{}
	if r.traced {
		r.layerMetrics(m, tr, toolMS, before, after, win, rec)
		r.writeSpans(tr)
	} else {
		r.endToEnd(m, setup, rec, win)
	}
	return &result{
		Correct:   len(checks) == 0 && r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   m,
	}, nil
}

// sessionSeed derives a distinct seed per session, so no two sessions
// share a source (and hence a D(G) memo entry).
func sessionSeed(seed int64, analyst, loop int) int64 {
	return seed*1_000_003 + int64(analyst)*100_019 + int64(loop) + 1
}

// newSession generates a session's source and script.
func (r *runner) newSession(analyst, loop int, keep bool) (*session, error) {
	src := genSource(sessionSeed(r.seed, analyst, loop))
	dir := r.sessionDir(analyst, loop)
	if err := src.writeCSV(dir); err != nil {
		return nil, err
	}
	spec := loopSpec{edits: genEdits(src, r.wl.editRels, r.wl.edits), readEvery: r.wl.readEvery, keep: keep}
	return &session{analyst: analyst, loop: loop, dir: dir, src: src,
		steps: buildScript(src, spec), watched: analyst == 0}, nil
}

// setupReps is how many times a run sets up; it reports the median.
const setupReps = 5

// setupMedian sets the benchmark up setupReps times, keeping the last
// server, and returns the median set-up CPU time in seconds.
func (r *runner) setupMedian(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			r.stopServer()
		}
		runtime.GC()
		start := cpuTime()
		if err := r.setup(ctx, i); err != nil {
			return 0, err
		}
		times = append(times, (cpuTime() - start).Seconds())
	}
	return percentile(times, 50), nil
}

// cpuTime is the CPU time the kernel has charged to this process, user
// and system, across all threads. Unlike wall time it excludes time
// the host steals from the guest's vCPUs, which on a shared 2-vCPU VM
// moves wall-clock figures by up to 1.5x between runs of one seed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setup generates the set-up source, checks that mining finds exactly
// the expected joins and that the chase value occurs in Reviews,
// derives the spill cap, and starts the server with fresh journal and
// spill directories.
func (r *runner) setup(ctx context.Context, i int) error {
	base := filepath.Join(r.runDir, fmt.Sprintf("setup%d", i))
	r.dataDir = filepath.Join(base, "data")
	r.journalDir = filepath.Join(base, "journal")
	r.spillDir = filepath.Join(base, "spill")
	for _, d := range []string{r.dataDir, r.journalDir, r.spillDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	src := genSource(r.seed)
	dir := filepath.Join(base, "setup-source")
	if err := src.writeCSV(dir); err != nil {
		return err
	}
	// Loading the set-up source into a tool checks the mined joins and
	// the chase value.
	rs, err := openReference(ctx, dir, src.chaseTitle, nil)
	if err != nil {
		return err
	}

	r.cfg = serve.Config{JournalDir: r.journalDir, Budget: fd.Budget{SpillDir: r.spillDir}}
	if r.wl.capMultiple > 0 {
		dgBytes, err := finalDGBytes(ctx, rs, src)
		if err != nil {
			return err
		}
		r.capBytes = int64(r.wl.capMultiple * float64(dgBytes))
		r.cfg.CacheCapacity = -1
		r.cfg.Budget.MaxBytes = r.capBytes
	}
	r.srv = serve.New(r.cfg)
	r.ts = httptest.NewServer(r.srv.Handler())
	res, err := http.Get(r.ts.URL + "/healthz")
	if err != nil {
		return err
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", res.StatusCode)
	}
	return nil
}

// finalDGBytes builds the loop's final mapping on a fresh reference
// tool and returns its D(G)'s approximate resident bytes.
func finalDGBytes(ctx context.Context, rs *refSession, src *source) (int64, error) {
	for _, st := range buildScript(src, loopSpec{}) {
		if st.op == "filter" {
			break
		}
		if _, _, err := rs.apply(ctx, st); err != nil {
			return 0, err
		}
	}
	dg, err := rs.tool.Active().Mapping.DG(ctx, rs.in)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, t := range dg.Tuples() {
		n += t.ApproxBytes()
	}
	return n, nil
}

func (r *runner) stopServer() {
	if r.ts != nil {
		r.ts.Close()
		r.ts = nil
	}
	if r.srv != nil {
		_ = r.srv.Shutdown(context.Background()) // the listener is already closed; Shutdown only closes journals
		r.srv = nil
	}
}

// windowStats is what the measuring window observed.
type windowStats struct {
	elapsed    float64 // seconds from the start to the last loop's end
	cpuSeconds float64 // process CPU time over the window
	loops      []*session
	allocBytes float64
	peakLive   float64 // median over loops of each loop's peak live heap
	windowReqs int
}

// heapSample is one reading of the live heap (as of the last GC).
type heapSample struct {
	at    time.Time
	bytes float64
}

// loopPeakMedian takes, for every loop, the highest live-heap sample
// taken while it ran, and returns the median over loops. The median of
// per-loop peaks is steadier than the window's single maximum, which
// depends on one GC cycle landing on one allocation burst.
func loopPeakMedian(loops []*session, heap []heapSample) float64 {
	var peaks []float64
	for _, s := range loops {
		peak := 0.0
		for _, h := range heap {
			if !h.at.Before(s.start) && !h.at.After(s.end) && h.bytes > peak {
				peak = h.bytes
			}
		}
		if peak > 0 {
			peaks = append(peaks, peak)
		}
	}
	return percentile(peaks, 50)
}

// window runs the analysts closed-loop for the configured seconds.
// Loops started before the deadline run to completion.
func (r *runner) window(ctx context.Context) (*windowStats, error) {
	runtime.GC()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()

	// The sampler owns heap until samplerWG.Wait returns.
	var heap []heapSample
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-stopSampler:
				return
			case now := <-tick.C:
				metrics.Read(live)
				heap = append(heap, heapSample{at: now, bytes: float64(live[0].Value.Uint64())})
			}
		}
	}()

	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(r.secs) * time.Second)
	var (
		mu    sync.Mutex
		loops []*session
		last  time.Time
		errs  []error
		wg    sync.WaitGroup
	)
	for a := 0; a < r.wl.analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c, w := newClient(r.ts.URL), newClient(r.ts.URL)
			defer c.close()
			defer w.close()
			for k := 0; time.Now().Before(deadline); k++ {
				s, err := r.newSession(a, k, false)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				s.inWindow = true
				r.runSession(ctx, c, w, s)
				mu.Lock()
				loops = append(loops, s)
				if now := time.Now(); now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	close(stopSampler)
	samplerWG.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	metrics.Read(allocs)
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].analyst != loops[j].analyst {
			return loops[i].analyst < loops[j].analyst
		}
		return loops[i].loop < loops[j].loop
	})
	r.sessions = append(r.sessions, loops...)
	r.tally.mu.Lock()
	reqs := len(r.tally.reqMS)
	r.tally.mu.Unlock()
	return &windowStats{
		elapsed:    last.Sub(start).Seconds(),
		cpuSeconds: cpu.Seconds(),
		loops:      loops,
		allocBytes: float64(allocs[0].Value.Uint64() - alloc0),
		peakLive:   loopPeakMedian(loops, heap),
		windowReqs: reqs,
	}, nil
}

// restarts is how many timed restarts the closing phase makes on the
// kept session's journal, after one untimed warm-up restart (the first
// replay after the window runs measurably slower than the ones after
// it); recovery figures are the medians.
const restarts = 3

// recovery is the restart's replay cost.
type recovery struct{ cpuS, wallS float64 }

// closeAndRestart runs one more loop that keeps its session, then
// restarts the server on the same journal directory several times,
// checking each time that the replayed session's view is
// byte-identical to the view before the first restart.
func (r *runner) closeAndRestart(ctx context.Context) (recovery, error) {
	s, err := r.newSession(0, 1_000_000, true)
	if err != nil {
		return recovery{}, err
	}
	c, w := newClient(r.ts.URL), newClient(r.ts.URL)
	r.runSession(ctx, c, w, s)
	c.close()
	w.close()
	r.sessions = append(r.sessions, s)
	if s.failed {
		return recovery{}, fmt.Errorf("closing session failed")
	}
	view := func() ([]byte, error) {
		c := newClient(r.ts.URL)
		defer c.close()
		res := c.do(ctx, "GET", "/api/sessions/"+s.id+"/view", nil)
		r.tally.note("view", res, false)
		if !res.ok() {
			return nil, fmt.Errorf("view of session %s: status %d: %v", s.id, res.status, res.err)
		}
		return res.body, nil
	}
	pre, err := view()
	if err != nil {
		return recovery{}, err
	}
	var cpu, wall []float64
	for i := 0; i <= restarts; i++ {
		r.stopServer()
		runtime.GC()
		c0, w0 := cpuTime(), time.Now()
		r.srv = serve.New(r.cfg)
		if i > 0 {
			cpu = append(cpu, (cpuTime() - c0).Seconds())
			wall = append(wall, time.Since(w0).Seconds())
		}
		r.ts = httptest.NewServer(r.srv.Handler())
		post, err := view()
		if err != nil {
			return recovery{}, err
		}
		if string(pre) != string(post) {
			return recovery{}, fmt.Errorf("view after restart %d differs from the view before it", i)
		}
	}
	c = newClient(r.ts.URL)
	defer c.close()
	r.tally.note("delete", c.do(ctx, "DELETE", "/api/sessions/"+s.id, nil), false)
	return recovery{cpuS: percentile(cpu, 50), wallS: percentile(wall, 50)}, nil
}

// sessionChecks verifies the spill expectations: the spill workload
// spills in every loop and is never refused with 413; the others spill
// nothing.
func (r *runner) sessionChecks(before, after map[string]int64) []string {
	var out []string
	if r.tally.undelivered > 0 {
		out = append(out, fmt.Sprintf("%d watched edits never reached the watcher", r.tally.undelivered))
	}
	for _, s := range r.sessions {
		if s.failed {
			out = append(out, fmt.Sprintf("session %d/%d failed", s.analyst, s.loop))
		}
	}
	if r.wl.capMultiple > 0 {
		if r.tally.status413 > 0 {
			out = append(out, fmt.Sprintf("%d requests refused with 413 under the spill cap", r.tally.status413))
		}
		for _, s := range r.sessions {
			if s.spillBytes <= 0 {
				out = append(out, fmt.Sprintf("spill session %d/%d spilled nothing", s.analyst, s.loop))
			}
		}
	} else if d := after["spill.bytes"] - before["spill.bytes"]; d != 0 {
		out = append(out, fmt.Sprintf("%s spilled %d bytes; it must spill nothing", r.wl.name, d))
	}
	return out
}

// references replays every session directly on a workspace.Tool and
// compares its view with the server's. Untraced, two workers share
// the sessions; traced, one worker runs them in order with the memo
// cache reset, so each layer call sees the state the server saw.
func (r *runner) references(ctx context.Context, tr *tracer) ([][]float64, error) {
	toolMS := make([][]float64, len(r.sessions))
	var capped fd.Budget
	if r.wl.capMultiple > 0 {
		capped = fd.Budget{MaxBytes: r.capBytes, SpillDir: r.spillDir}
	}
	if tr != nil {
		fd.InvalidateCache()
		if r.wl.capMultiple > 0 {
			fd.SetCacheCapacity(0)
		} else {
			fd.SetCacheCapacity(64)
		}
		jdir := filepath.Join(r.runDir, "ref-journal")
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, err
		}
		var errs []error
		for i, s := range r.sessions {
			if s.failed {
				continue
			}
			ms, err := replaySession(ctx, s, tr, capped, jdir, i == len(r.sessions)-1)
			if err != nil {
				errs = append(errs, err)
			}
			toolMS[i] = ms
		}
		return toolMS, errors.Join(errs...)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		next = make(chan int)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := replaySession(ctx, r.sessions[i], nil, fd.Budget{}, "", false); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i, s := range r.sessions {
		if !s.failed {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return toolMS, errors.Join(errs...)
}

// endToEnd fills the untraced run's metrics. Times are process CPU
// time (see cpuTime); the wall-clock latencies are in the traced
// run's report.
func (r *runner) endToEnd(m report, setup float64, rec recovery, w *windowStats) {
	m.set("setup_s", "s", setup)
	var loops, jBytes, jOps float64
	for _, s := range w.loops {
		if s.failed {
			continue
		}
		loops++
		jBytes += float64(s.journalBytes)
		jOps += float64(s.journalOps)
	}
	m.set("loop_cpu_ms", "ms", ratio(w.cpuSeconds*1e3, loops))
	m.set("recovery_cpu_s", "s", rec.cpuS)
	m.set("journal_bytes_per_op", "bytes", ratio(jBytes, jOps))
	m.set("alloc_mb_per_request", "MB", ratio(w.allocBytes/1e6, float64(w.windowReqs)))
	m.set("peak_heap_mb", "MB", w.peakLive/1e6)
}

// writeSpans keeps the traced run's spans under .bench_build/traces.
func (r *runner) writeSpans(tr *tracer) {
	dir := filepath.Join(filepath.Dir(filepath.Dir(r.runDir)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.wl.name, r.seed)), data, 0o644) // best effort: the spans are a by-product
}
