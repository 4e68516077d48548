package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cobra/internal/backend"
	"cobra/internal/fleet"
	"cobra/internal/obs"
	"cobra/internal/spec"
)

// paperSmall is the benchmark's own copy of fleets/paper-small.yaml, so an
// edit to the repository's fleet is not a change of the benchmark.
//
//go:embed paper-small.yaml
var paperSmall string

// fleetSource returns the fleet file with every seed set to seed.  At the
// default seed it is the file itself.
func fleetSource(seed uint64) []byte {
	return []byte(strings.ReplaceAll(paperSmall, fmt.Sprintf("seed: %d", defaultSeed), fmt.Sprintf("seed: %d", seed)))
}

// goldens maps fleet services to the experiments package's golden renders,
// which the fleet must reproduce byte for byte at the default seed.
var goldens = map[string]string{
	"table1": "table1.txt", "table2": "table2.txt", "table3": "table3.txt", "fig10": "fig10_small.txt",
}

// goldenDir is where the goldens sit, relative to the repository root.
const goldenDir = "internal/experiments/testdata/golden"

func loadGoldens() (map[string]string, error) {
	out := map[string]string{}
	for svc, file := range goldens {
		data, err := os.ReadFile(filepath.Join(goldenDir, file))
		if err != nil {
			return nil, fmt.Errorf("reading golden (run from the repository root): %w", err)
		}
		out[svc] = string(data)
	}
	return out, nil
}

// timedBackend runs every spec on backend.Local, recording the wall time
// and outcome of each job: the runner layer, seen from outside.
type timedBackend struct {
	local  backend.Local
	parent *obs.ActiveSpan // span of the fleet step in progress

	mu   sync.Mutex
	jobs []job
}

// job keeps only the phase times of an outcome: holding the outcome would
// keep its pipeline alive and inflate the memory the benchmark measures.
type job struct {
	wall    time.Duration
	timings spec.Timings
}

func (t *timedBackend) Name() string { return t.local.Name() }

func (t *timedBackend) Run(ctx context.Context, s *spec.RunSpec) (*spec.Outcome, error) {
	sp := t.parent.Child("runner", "backend.Run")
	t0 := time.Now()
	out, err := t.local.Run(ctx, s)
	wall := time.Since(t0)
	sp.End()
	if err == nil {
		t.mu.Lock()
		t.jobs = append(t.jobs, job{wall, out.Timings})
		t.mu.Unlock()
	}
	return out, err
}

// take returns the jobs recorded since the last call.
func (t *timedBackend) take() []job {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobs := t.jobs
	t.jobs = nil
	return jobs
}

// settleLog receives the fleet's per-service log lines and stamps when each
// service settled.
type settleLog struct {
	mu  sync.Mutex
	at  map[string]time.Time
	err error
}

func (l *settleLog) Write(p []byte) (int, error) {
	now := time.Now()
	var name string
	if _, err := fmt.Sscanf(string(p), "service=%s", &name); err != nil {
		l.mu.Lock()
		l.err = fmt.Errorf("unreadable fleet log line %q", p)
		l.mu.Unlock()
		return len(p), nil
	}
	l.mu.Lock()
	l.at[name] = now
	l.mu.Unlock()
	return len(p), nil
}

// fleetWork runs cycles of the small paper fleet in-process on the Local
// backend: cold (fresh cache), warm (full replay, repeated), and cone (the
// baseline service's seed edited, so baseline and paper re-run).
type fleetWork struct {
	b                 *bench
	be                *timedBackend
	cold, warm, cone  []float64 // step wall times; warm and cone are means per cycle
	parse, digest     []float64 // ms
	svc               map[string][]float64
	jobWall           []float64 // ms, cold steps
	busy              []float64
	executed, skipped map[string]int
	outputs           map[string]string   // cold outputs of the first cycle
	coneOut           []map[string]string // outputs of each cone edit in the first cycle
}

func (b *bench) fleetWork() *fleetWork {
	return &fleetWork{b: b, be: &timedBackend{},
		svc: map[string][]float64{}, executed: map[string]int{}, skipped: map[string]int{}}
}

func (w *fleetWork) finish() {
	m := w.b.metrics
	m.setMedian("fleet_cold_s", "s", w.cold)
	m.setMedian("fleet_warm_ms", "ms", w.warm)
	m.setMedian("fleet_cone_s", "s", w.cone)
	m.setMedian("fleet.parse_ms", "ms", w.parse)
	m.setMedian("fleet.digest_ms", "ms", w.digest)
	for _, s := range fleetServices {
		m.setMedian("fleet.svc_s."+s, "s", w.svc[s])
	}
	for _, step := range []string{"cold", "warm", "cone"} {
		m.set("fleet.executed."+step, "count", float64(w.executed[step]), 1)
		m.set("fleet.skipped."+step, "count", float64(w.skipped[step]), 1)
	}
	m.setMedian("runner.busy_frac", "fraction", w.busy)
	m.setMedian("runner.job_wall_p50_ms", "ms", w.jobWall)
	if len(w.jobWall) > 0 {
		m.set("runner.job_wall_max_ms", "ms", maxOf(w.jobWall), len(w.jobWall))
	}
}

// run is one timed fleet execution: parse the file, apply edit, run.
func (w *fleetWork) run(name string, src []byte, dir string, log *settleLog, edit func(*fleet.File)) (*fleet.Result, time.Duration, error) {
	b, be := w.b, w.be
	sp := b.rec.Start(obs.TraceContext{}, "fleet", "fleet."+name)
	defer sp.End()
	be.parent = sp
	t0 := time.Now()
	f, err := fleet.Parse(src)
	w.parse = append(w.parse, ms(time.Since(t0)))
	if err != nil {
		return nil, 0, err
	}
	if edit != nil {
		edit(f)
	}
	opt := fleet.Options{Backend: be, CacheDir: dir, Parallelism: b.workers}
	if log != nil {
		opt.Log = log
	}
	res, err := f.Run(context.Background(), opt)
	return res, time.Since(t0), err
}

// step runs one cycle.
func (w *fleetWork) step() (bool, error) {
	return true, w.cycle()
}

func (w *fleetWork) cycle() error {
	b, be := w.b, w.be
	dir, err := os.MkdirTemp(b.dir, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src := fleetSource(b.seed)
	check := func(step string, res *fleet.Result, executed, skipped int) error {
		b.attempted++
		w.executed[step], w.skipped[step] = res.Executed, res.Skipped
		if res.Executed != executed || res.Skipped != skipped {
			return fmt.Errorf("%s: executed %d, skipped %d; want %d/%d", step, res.Executed, res.Skipped, executed, skipped)
		}
		return nil
	}

	// Cold.
	log := &settleLog{at: map[string]time.Time{}}
	runStart := time.Now()
	res, d, err := w.run("cold", src, dir, log, nil)
	if err != nil {
		return err
	}
	if err := check("cold", res, len(fleetServices), 0); err != nil {
		return err
	}
	if log.err != nil {
		return log.err
	}
	w.cold = append(w.cold, d.Seconds())
	jobs := be.take()
	var busy time.Duration
	for _, j := range jobs {
		busy += j.wall
		w.jobWall = append(w.jobWall, ms(j.wall))
	}
	w.busy = append(w.busy, busy.Seconds()/(float64(b.workers)*d.Seconds()))
	stageStart := runStart
	for _, stage := range res.Stages {
		last := stageStart
		for _, name := range stage {
			at := log.at[name]
			w.svc[name] = append(w.svc[name], at.Sub(stageStart).Seconds())
			if at.After(last) {
				last = at
			}
		}
		stageStart = last
	}
	outputs := resultOutputs(res)
	if w.outputs == nil {
		w.outputs = outputs
		if b.goldens != nil {
			for svc, want := range b.goldens {
				if outputs[svc] != want {
					return fmt.Errorf("cold: service %s differs from %s/%s", svc, goldenDir, goldens[svc])
				}
			}
		}
	}
	if err := sameOutputs("cold", outputs, w.outputs, nil); err != nil {
		return err
	}

	// Warm: a full replay, timed as often as it takes to time it.  Warm and
	// cone steps take milliseconds and their times are bimodal (an fsync
	// is fast or slow), so a cycle contributes the mean of its steps: a
	// median over single steps jumps between the modes from run to run.
	var warm, cone time.Duration
	for i := 0; i < warmReplays; i++ {
		f, err := fleet.Parse(src)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := digestAll(f); err != nil {
			return err
		}
		w.digest = append(w.digest, ms(time.Since(t0)))
		res, d, err := w.run("warm", src, dir, nil, nil)
		if err != nil {
			return err
		}
		if err := check("warm", res, 0, len(fleetServices)); err != nil {
			return err
		}
		warm += d
		if err := sameOutputs("warm", resultOutputs(res), w.outputs, nil); err != nil {
			return err
		}
	}

	w.warm = append(w.warm, ms(warm)/warmReplays)

	// Cone: each new seed for the baseline run re-runs baseline and the
	// paper bundle, and nothing else.
	inCone := map[string]bool{"baseline": true, "paper": true}
	for i := 0; i < coneEdits; i++ {
		seed := b.seed + 1 + uint64(i)
		res, d, err := w.run("cone", src, dir, nil, func(f *fleet.File) {
			f.Services["baseline"].Run.Seed = seed
		})
		if err != nil {
			return err
		}
		be.take()
		if err := check("cone", res, 2, len(fleetServices)-2); err != nil {
			return err
		}
		cone += d
		outputs := resultOutputs(res)
		if err := sameOutputs("cone", outputs, w.outputs, inCone); err != nil {
			return err
		}
		if len(w.coneOut) == i {
			w.coneOut = append(w.coneOut, outputs)
		}
		if err := sameOutputs("cone", outputs, w.coneOut[i], nil); err != nil {
			return err
		}
	}
	w.cone = append(w.cone, cone.Seconds()/coneEdits)
	return nil
}

// warmReplays and coneEdits are how many warm replays and cone edits each
// fleet cycle times: both steps take milliseconds.
const (
	warmReplays = 20
	coneEdits   = 10
)

func resultOutputs(res *fleet.Result) map[string]string {
	out := map[string]string{}
	for name, sr := range res.Services {
		out[name] = sr.Output
	}
	return out
}

// sameOutputs checks that got renders every service as want does, except
// the services in skip.
func sameOutputs(step string, got, want map[string]string, skip map[string]bool) error {
	for _, name := range fleetServices {
		if !skip[name] && got[name] != want[name] {
			return fmt.Errorf("%s: service %s output differs from the cold run's", step, name)
		}
	}
	return nil
}

// digestAll computes every service's Merkle digest in stage order, the
// digest work a replay does before it reads the cache.
func digestAll(f *fleet.File) error {
	stages, err := f.Stages()
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, stage := range stages {
		for _, name := range stage {
			d, err := f.Digest(f.Services[name], digests)
			if err != nil {
				return err
			}
			digests[name] = d
		}
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}
