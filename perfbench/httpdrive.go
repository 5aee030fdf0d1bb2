package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clio/internal/obs"
	"clio/internal/workspace"
)

// client is one closed-loop connection to the server: it sends a
// request only after the previous reply has been read in full.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed (or failed) request.
type reply struct {
	start  time.Time
	dur    time.Duration
	status int
	body   []byte
	trace  string
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

func (c *client) do(ctx context.Context, method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		r.dur = time.Since(r.start)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(r.start)
	r.status = resp.StatusCode
	r.trace = resp.Header.Get("X-Clio-Trace")
	return r
}

// session is one analyst loop: its generated source, its script, and
// what the server answered.
type session struct {
	analyst, loop int
	dir           string
	src           *source
	steps         []step
	id            string
	watched       bool
	inWindow      bool

	stepMS []float64 // per step; 0 when the step failed
	loopMS float64
	// start and end bound the loop in time.
	start, end time.Time
	// viewRows is the canonical JSON of the last view's rows.
	viewRows     []byte
	journalBytes int64
	journalOps   int
	spillBytes   int64
	deliveries   []float64 // watch delivery per watched edit, ms
	failed       bool
}

// sentEdit is an acknowledged edit whose watch event is awaited.
type sentEdit struct {
	trace string
	sent  time.Time
}

// watchRecv is one watch event as received by the parked watcher.
type watchRecv struct {
	trace string
	at    time.Time
}

// matchDeliveries pairs every sent edit with the watch event carrying
// the same trace ID and returns the delivery delays in milliseconds,
// in edit order, plus the number of edits no event matched. Events
// from other ops (and duplicates) are ignored.
func matchDeliveries(sent []sentEdit, recv []watchRecv) ([]float64, int) {
	at := make(map[string]time.Time, len(recv))
	for _, r := range recv {
		if _, dup := at[r.trace]; !dup {
			at[r.trace] = r.at
		}
	}
	var out []float64
	missing := 0
	for _, s := range sent {
		t, ok := at[s.trace]
		if !ok {
			missing++
			continue
		}
		out = append(out, float64(t.Sub(s.sent))/1e6)
	}
	return out, missing
}

// tally accumulates request outcomes across analysts.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	status413 int
	// undelivered counts watched edits whose event never arrived.
	undelivered int
	reqMS       []float64
	editMS      []float64
	respBytes   int64
	errs        []string
}

// note records one request. Only requests inside the measuring window
// feed latency figures; every request counts toward attempted/failed.
func (t *tally) note(op string, r reply, inWindow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !r.ok() {
		t.failed++
		if r.status == http.StatusRequestEntityTooLarge {
			t.status413++
		}
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: status %d err %v body %.200s", op, r.status, r.err, r.body))
		}
		return
	}
	if !inWindow {
		return
	}
	ms := float64(r.dur) / 1e6
	t.reqMS = append(t.reqMS, ms)
	t.respBytes += int64(len(r.body))
	if op == "rows" {
		t.editMS = append(t.editMS, ms)
	}
}

// follow long-polls the session's watch feed from after, sending each
// received event to out, until ctx is cancelled. Polls cut short by the
// cancellation are neither counted nor failures.
func (c *client) follow(ctx context.Context, id string, after int64, out chan<- watchRecv, t *tally) {
	for {
		r := c.do(ctx, "GET", fmt.Sprintf("/api/sessions/%s/watch?after=%d&wait_ms=1000", id, after), nil)
		now := time.Now()
		if ctx.Err() != nil {
			return
		}
		t.note("watch", r, false)
		if !r.ok() {
			return
		}
		var resp struct {
			Events []struct {
				Trace string `json:"trace"`
			} `json:"events"`
			Next int64 `json:"next"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return
		}
		for _, ev := range resp.Events {
			select {
			case out <- watchRecv{trace: ev.Trace, at: now}:
			case <-ctx.Done():
				return
			}
		}
		after = resp.Next
	}
}

// runSession drives one session's script over HTTP.
func (r *runner) runSession(ctx context.Context, c, watcher *client, s *session) {
	s.start = time.Now()
	spill0 := obs.SnapshotDefault().Counters["spill.bytes"]
	res := c.do(ctx, "POST", "/api/sessions", createArgs(s.dir))
	r.tally.note("create", res, s.inWindow)
	if !res.ok() {
		s.failed = true
		return
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(res.body, &created); err != nil || created.ID == "" {
		s.failed = true
		return
	}
	s.id = created.ID
	ops := 1 // the create record

	lastEdit := -1
	for i, st := range s.steps {
		if st.op == "rows" {
			lastEdit = i
		}
	}
	var (
		sent []sentEdit
		wr   *watchRun
	)
	defer func() {
		if wr != nil {
			wr.stop()
		}
	}()
	s.stepMS = make([]float64, len(s.steps))
	for i, st := range s.steps {
		if st.op == "rows" && s.watched && wr == nil {
			if wr = r.attachWatch(ctx, c, watcher, s); wr == nil {
				s.failed = true
				return
			}
		}
		method, path := st.route(s.id)
		res := c.do(ctx, method, path, st.args)
		r.tally.note(st.op, res, s.inWindow)
		if !res.ok() {
			s.failed = true
			break
		}
		s.stepMS[i] = float64(res.dur) / 1e6
		if st.stateChanging() {
			// Journal size after the latest op, so a deleted session
			// reports its journal as it was just before the delete.
			ops++
			if fi, err := os.Stat(workspace.JournalPath(r.journalDir, s.id)); err == nil {
				s.journalBytes, s.journalOps = fi.Size(), ops
			}
		}
		if st.op == "rows" && wr != nil {
			sent = append(sent, sentEdit{trace: res.trace, sent: res.start})
		}
		if st.op == "view" {
			var v struct {
				Rows [][]string `json:"rows"`
			}
			if err := json.Unmarshal(res.body, &v); err != nil {
				s.failed = true
				break
			}
			s.viewRows = mustJSON(v.Rows)
		}
		if i == lastEdit && wr != nil {
			s.deliveries = r.awaitDeliveries(sent, wr.recv)
			wr.stop()
			wr = nil
		}
	}
	s.end = time.Now()
	s.loopMS = float64(s.end.Sub(s.start)) / 1e6
	s.spillBytes = obs.SnapshotDefault().Counters["spill.bytes"] - spill0
}

// watchRun is a parked watcher following one session.
type watchRun struct {
	recv   chan watchRecv
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// stop cancels the parked poll and waits for the watcher to return.
func (w *watchRun) stop() {
	w.cancel()
	w.wg.Wait()
}

// attachWatch installs the session's watch with one immediate poll
// (which sets the diff baseline) and parks the watcher connection on
// it. It returns nil if the attach request failed.
func (r *runner) attachWatch(ctx context.Context, c, watcher *client, s *session) *watchRun {
	att := c.do(ctx, "GET", "/api/sessions/"+s.id+"/watch?after=0", nil)
	r.tally.note("watch", att, s.inWindow)
	if !att.ok() {
		return nil
	}
	var a struct {
		Next int64 `json:"next"`
	}
	_ = json.Unmarshal(att.body, &a) // a malformed body leaves after=0, which only replays events
	wctx, cancel := context.WithCancel(ctx)
	w := &watchRun{recv: make(chan watchRecv, countEdits(s.steps)+1), cancel: cancel}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		watcher.follow(wctx, s.id, a.Next, w.recv, &r.tally)
	}()
	return w
}

// awaitDeliveries collects the watch events for every sent edit (each
// is published before its edit is acknowledged, so they are already on
// their way) and matches them by trace ID. An edit whose event does not
// arrive within the grace period counts as undelivered.
func (r *runner) awaitDeliveries(sent []sentEdit, recv <-chan watchRecv) []float64 {
	var got []watchRecv
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for {
		d, missing := matchDeliveries(sent, got)
		if missing == 0 {
			return d
		}
		select {
		case w := <-recv:
			got = append(got, w)
		case <-timeout.C:
			r.tally.mu.Lock()
			r.tally.undelivered += missing
			r.tally.mu.Unlock()
			return d
		}
	}
}

// countEdits counts the edits in a script.
func countEdits(steps []step) int {
	n := 0
	for _, st := range steps {
		if st.op == "rows" {
			n++
		}
	}
	return n
}

// sessionDir names a session's CSV directory under the run directory.
func (r *runner) sessionDir(analyst, loop int) string {
	return filepath.Join(r.dataDir, fmt.Sprintf("a%d-l%d", analyst, loop))
}
