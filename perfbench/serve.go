package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cobra/internal/obs"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

// The serve phase's load: closed loop, one client per worker, each waiting
// for its reply before sending the next request, as every real caller does.
const (
	hitShare      = 0.8 // share of operations that re-submit a completed spec
	coalesceShare = 0.1 // share of fresh specs a second client submits too
	missInsts     = 20_000
	missInterval  = 5_000 // interval telemetry window of a served miss
	hitQuantile   = 0.90
	hitTail       = 0.99 // traced runs only: too few samples beyond it to gate on
	missQuantile  = 0.90
	sampledChecks = 3 // served results re-run locally after the window
)

// serveEnv is an in-process server on a loopback listener.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error // result of hs.Serve
}

// startServer starts a server whose cache and journal live in dir.
func startServer(dir string, workers int) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Workers: workers, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // the listen error is the one to report
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop drains the server and waits until its goroutines have exited.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, e.srv.Shutdown(ctx))
}

// serveStats gathers the serve phase's samples.
type serveStats struct {
	mu                           sync.Mutex
	hit, miss, first, submit     []float64 // ms
	queueWait, exec, hitBytes    []float64
	frames                       []float64
	fresh, rejected, ops, failed int
	completed                    []string          // spec bodies whose results are in hand
	results                      map[string][]byte // digest → result bytes of the miss
	timings                      []spec.Timings
	problems                     []string
}

func (st *serveStats) fail(format string, args ...any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failLocked(format, args...)
}

func (st *serveStats) failLocked(format string, args ...any) {
	st.failed++
	if len(st.problems) < 10 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// enough reports whether every reported serve percentile has the samples
// it needs; the hit tail is reported by traced runs only.
func (st *serveStats) enough(traced bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	hits := samplesNeeded(hitQuantile)
	if traced {
		hits = samplesNeeded(hitTail)
	}
	return len(st.hit) >= hits && len(st.miss) >= samplesNeeded(missQuantile)
}

// offer is a fresh spec one client submitted and asks the next free client
// to submit too, while the run is likely still in flight.
type offer struct {
	body []byte
	from int
}

// take returns another client's pending offer, if there is one.
func (w *serveWork) take(me int) *offer {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.pending
	if o == nil || o.from == me {
		return nil
	}
	w.pending = nil
	return o
}

// share leaves body for the next free client, unless an offer is pending.
func (w *serveWork) share(me int, body []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == nil {
		w.pending = &offer{body, me}
	}
}

// serveWork drives the server with the closed loop, a slice at a time,
// until the budget is spent and every reported percentile has its samples;
// finish then checks a sample of served results against local runs.
type serveWork struct {
	b        *bench
	env      *serveEnv
	st       *serveStats
	rec      *obs.SpanRecorder
	traced   bool
	clients  []streams
	before   obs.Snapshot
	window   time.Duration
	gcCycles uint64
	gcPauses float64

	mu      sync.Mutex
	pending *offer
}

// streams are one client's seeded random streams, kept separate so that
// timing cannot shift one stream's draws onto another: operation kinds,
// fresh specs, and which completed spec a hit re-submits.
type streams struct {
	ops   *rand.Rand
	fresh *deck
	picks *rand.Rand
}

func (b *bench) serveWork() *serveWork {
	w := &serveWork{b: b, env: b.server, st: &serveStats{results: map[string][]byte{}},
		rec: b.rec, traced: b.rec != nil, before: b.server.srv.Metrics().Snap()}
	for c := 0; c < b.workers; c++ {
		stream := func(k int) *rand.Rand {
			return rand.New(rand.NewSource(int64(b.seed)*1_000_003 + int64(3*c+k)))
		}
		w.clients = append(w.clients, streams{stream(0), newDeck(stream(1)), stream(2)})
	}
	return w
}

// serveSlice is how long the closed loop runs before the run turns to
// another phase.
const serveSlice = time.Second

// step runs the closed loop for one slice.
func (w *serveWork) step() (bool, error) {
	meter := obs.StartResourceMeter(0)
	start := time.Now()
	var wg sync.WaitGroup
	for c, cs := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, cs, func() bool { return time.Since(start) >= serveSlice })
		}()
	}
	wg.Wait()
	w.window += time.Since(start)
	res := meter.Stop()
	w.gcCycles += res.GCCycles
	w.gcPauses += res.GCPauseMS
	return w.st.enough(w.traced) || w.window > serveCap, nil
}

func (w *serveWork) finish() {
	b, st, window := w.b, w.st, w.window
	before, after := w.before, b.server.srv.Metrics().Snap()
	b.attempted += st.ops
	b.failed += st.failed
	b.problems = append(b.problems, st.problems...)
	if !st.enough(w.traced) {
		b.fail("serve: too few samples after %s (%d hits, %d misses)", serveCap, len(st.hit), len(st.miss))
	}
	b.checkServed(st)

	m := b.metrics
	m.setMedian("serve_hit_p50_ms", "ms", st.hit)
	m.setPercentile("serve_hit_p90_ms", "ms", st.hit, hitQuantile)
	m.setPercentile("serve.hit_p99_ms", "ms", st.hit, hitTail)
	m.setMedian("serve_miss_p50_ms", "ms", st.miss)
	m.setPercentile("serve_miss_p90_ms", "ms", st.miss, missQuantile)
	m.setMedian("serve_first_progress_p50_ms", "ms", st.first)
	m.set("serve_req_per_s", "1/s", float64(len(st.hit)+len(st.miss))/window.Seconds(), len(st.hit)+len(st.miss))
	m.setMedian("serve.submit_ms", "ms", st.submit)
	m.setMedian("serve.queue_wait_ms", "ms", st.queueWait)
	m.setMedian("serve.exec_ms", "ms", st.exec)
	m.setMedian("serve.hit_body_bytes", "bytes", st.hitBytes)
	m.setMedian("serve.sse_frames_per_miss", "count", st.frames)
	jobs := after.JobsTotal - before.JobsTotal
	if st.fresh > 0 {
		m.set("serve.coalesced_frac", "fraction", float64(st.fresh-int(jobs))/float64(st.fresh), st.fresh)
	}
	m.set("serve.rejected_429", "count", float64(st.rejected), st.ops)
	m.set("serve.job_retries", "count", float64(after.JobRetries-before.JobRetries), int(jobs))
	m.set("go.gc_cycles", "count", float64(w.gcCycles), 1)
	m.set("go.gc_pause_ms", "ms", w.gcPauses, 1)
	if b.plan.focus == phaseServe {
		for _, t := range st.timings {
			b.timings.add(t)
		}
	}
}

// serveCap ends a serve phase that cannot gather its samples, well inside
// the run's time limit.
const serveCap = 90 * time.Second

// checkServed re-runs a seeded sample of served results locally: the
// served counters must equal spec.Exec's.
func (b *bench) checkServed(st *serveStats) {
	var digests []string
	for d := range st.results {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	rng := rand.New(rand.NewSource(int64(b.seed)))
	rng.Shuffle(len(digests), func(i, j int) { digests[i], digests[j] = digests[j], digests[i] })
	for _, d := range digests[:min(sampledChecks, len(digests))] {
		var r serve.Result
		b.attempted++
		if err := json.Unmarshal(st.results[d], &r); err != nil {
			b.fail("serve: result of %s: %v", d, err)
			continue
		}
		out, err := spec.Exec(r.Spec, spec.Attach{})
		if err != nil {
			b.fail("serve: local run of %s: %v", d, err)
			continue
		}
		if out.Stats.Cycles != r.Stats.Cycles || out.Stats.Instructions != r.Stats.Instructions ||
			out.Stats.Mispredicts != r.Stats.Mispredicts {
			b.fail("serve: %s served %d cycles/%d mispredicts, local run %d/%d",
				d, r.Stats.Cycles, r.Stats.Mispredicts, out.Stats.Cycles, out.Stats.Mispredicts)
		}
	}
}

// client runs one closed-loop client until done reports true.
func (w *serveWork) client(me int, cs streams, done func() bool) {
	for !done() {
		if o := w.take(me); o != nil {
			w.fresh(o.body)
			continue
		}
		isHit, together := cs.ops.Float64() < hitShare, cs.ops.Float64() < coalesceShare
		w.st.mu.Lock()
		n := len(w.st.completed)
		var body string
		if n > 0 {
			body = w.st.completed[cs.picks.Intn(n)]
		}
		w.st.mu.Unlock()
		if isHit && n > 0 {
			w.hit([]byte(body))
			continue
		}
		next, err := cs.fresh.deal()
		if err != nil {
			w.st.fail("serve: making a spec: %v", err)
			return
		}
		if together {
			w.share(me, next)
		}
		w.fresh(next)
	}
}

// deck deals fresh specs: every preset × workload pair once per round, in
// a seeded order, each with a fresh seed and interval sampling on.  The mix
// of misses is then the same at every seed; the seed changes only the order
// and the simulated seeds.
type deck struct {
	rng   *rand.Rand
	pairs [][2]string
	next  int
}

func newDeck(rng *rand.Rand) *deck {
	d := &deck{rng: rng}
	for _, p := range spec.PresetNames() {
		for _, w := range programNames() {
			d.pairs = append(d.pairs, [2]string{p, w})
		}
	}
	return d
}

func (d *deck) deal() ([]byte, error) {
	if d.next == 0 {
		d.rng.Shuffle(len(d.pairs), func(i, j int) { d.pairs[i], d.pairs[j] = d.pairs[j], d.pairs[i] })
	}
	p := d.pairs[d.next]
	d.next = (d.next + 1) % len(d.pairs)
	s, err := spec.Preset(p[0])
	if err != nil {
		return nil, err
	}
	s.Workload, s.Seed, s.Insts = p[1], d.rng.Uint64(), missInsts
	s.Observe.IntervalInsts = missInterval
	return json.Marshal(s)
}

// status is the /v1/runs envelope, with the result's bytes kept as sent.
type status struct {
	Digest string          `json:"digest"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

func (w *serveWork) span(name string) *obs.ActiveSpan {
	return w.rec.Start(obs.TraceContext{}, "serve", name)
}

// post submits body, returning the status code and envelope.
func (w *serveWork) post(parent *obs.ActiveSpan, body []byte) (int, status, int, error) {
	sp := parent.Child("http", "POST /v1/runs")
	defer sp.End()
	resp, err := w.env.client.Post(w.env.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, status{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, status{}, 0, err
	}
	var st status
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, &st); err != nil {
			return 0, status{}, 0, fmt.Errorf("decoding POST reply: %w", err)
		}
	}
	return resp.StatusCode, st, len(data), nil
}

// hit re-submits a completed spec; the reply must come from the cache and
// carry the miss's result byte for byte.
func (w *serveWork) hit(body []byte) {
	sp := w.span("hit")
	defer sp.End()
	t0 := time.Now()
	code, st, n, err := w.post(sp, body)
	d := time.Since(t0)
	w.st.mu.Lock()
	w.st.ops++
	w.st.mu.Unlock()
	switch {
	case err != nil:
		w.st.fail("serve: hit: %v", err)
		return
	case code != http.StatusOK:
		w.countRejected(code)
		w.st.fail("serve: hit answered %d, want 200", code)
		return
	}
	w.st.mu.Lock()
	defer w.st.mu.Unlock()
	if !bytes.Equal(st.Result, w.st.results[st.Digest]) {
		w.st.failLocked("serve: hit body for %s differs from its miss result", st.Digest)
		return
	}
	w.st.hit = append(w.st.hit, ms(d))
	w.st.hitBytes = append(w.st.hitBytes, float64(n))
}

func (w *serveWork) countRejected(code int) {
	if code == http.StatusTooManyRequests {
		w.st.mu.Lock()
		w.st.rejected++
		w.st.mu.Unlock()
	}
}

// fresh submits a new spec, follows its progress stream to the done frame,
// and fetches the result.
func (w *serveWork) fresh(body []byte) {
	sp := w.span("miss")
	defer sp.End()
	t0 := time.Now()
	code, st, _, err := w.post(sp, body)
	submitted := time.Since(t0)
	w.st.mu.Lock()
	w.st.ops++
	w.st.fresh++
	w.st.mu.Unlock()
	switch {
	case err != nil:
		w.st.fail("serve: miss: %v", err)
		return
	case code == http.StatusOK: // the other submitter's run finished first
		w.record(st.Digest, body, st.Result, nil)
		return
	case code != http.StatusAccepted:
		w.countRejected(code)
		w.st.fail("serve: miss answered %d, want 202", code)
		return
	}
	first, frames, err := w.progress(sp, st.Digest)
	if err != nil {
		w.st.fail("serve: progress of %s: %v", st.Digest, err)
		return
	}
	result, err := w.result(sp, st.Digest)
	if err != nil {
		w.st.fail("serve: result of %s: %v", st.Digest, err)
		return
	}
	d := time.Since(t0)
	w.record(st.Digest, body, result, func() {
		w.st.miss = append(w.st.miss, ms(d))
		w.st.first = append(w.st.first, ms(first.Sub(t0)))
		w.st.submit = append(w.st.submit, ms(submitted))
		w.st.frames = append(w.st.frames, float64(frames))
	})
}

// record keeps a finished result for later hits and the local check, and
// under the lock runs add, which files the operation's samples.
func (w *serveWork) record(digest string, body, result []byte, add func()) {
	var r serve.Result
	if err := json.Unmarshal(result, &r); err != nil || r.Stats == nil || r.Spec == nil || r.Timings == nil || r.Resources == nil {
		w.st.fail("serve: result of %s is incomplete (%v)", digest, err)
		return
	}
	w.st.mu.Lock()
	defer w.st.mu.Unlock()
	if prev, ok := w.st.results[digest]; ok {
		if !bytes.Equal(prev, result) { // a coalesced pair must see one result
			w.st.failLocked("serve: two results for %s", digest)
		}
		if add != nil {
			add()
		}
		return
	}
	w.st.results[digest] = result
	w.st.completed = append(w.st.completed, string(body))
	w.st.queueWait = append(w.st.queueWait, r.Resources.QueueWaitMS)
	w.st.exec = append(w.st.exec, r.Timings.ExecMS)
	w.st.timings = append(w.st.timings, r.Timings.Timings)
	if add != nil {
		add()
	}
}

// progress reads the run's SSE stream to its done frame, returning when the
// first frame arrived and how many frames there were.
func (w *serveWork) progress(parent *obs.ActiveSpan, digest string) (time.Time, int, error) {
	sp := parent.Child("http", "GET progress")
	defer sp.End()
	req, err := http.NewRequest(http.MethodGet, w.env.base+"/v1/runs/"+digest+"/progress", nil)
	if err != nil {
		return time.Time{}, 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := w.env.client.Do(req)
	if err != nil {
		return time.Time{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, 0, fmt.Errorf("answered %d", resp.StatusCode)
	}
	var first time.Time
	frames := 0
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if frames == 0 {
				first = time.Now()
			}
			frames++
			if event == "done" {
				var ev struct{ Status string }
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					return first, frames, err
				}
				if ev.Status != "done" {
					return first, frames, fmt.Errorf("run ended %s", ev.Status)
				}
				return first, frames, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return first, frames, err
	}
	return first, frames, fmt.Errorf("stream ended without a done frame")
}

// result fetches a finished run's result bytes.
func (w *serveWork) result(parent *obs.ActiveSpan, digest string) ([]byte, error) {
	sp := parent.Child("http", "GET result")
	defer sp.End()
	resp, err := w.env.client.Get(w.env.base + "/v1/runs/" + digest)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var st status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || st.Status != "done" {
		return nil, fmt.Errorf("answered %d %s %s", resp.StatusCode, st.Status, st.Error)
	}
	return st.Result, nil
}
