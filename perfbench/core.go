package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	harness "cobra/internal/bench"
	"cobra/internal/compose"
	"cobra/internal/obs"
	"cobra/internal/spec"
	"cobra/internal/workloads"
)

// coreRun is one run of the core phase: a Table I design on gcc.
type coreRun struct {
	name string
	spec *spec.RunSpec
}

// counters are the simulated counts of one run; they repeat exactly for a
// given spec.
type counters struct {
	Insts       uint64 `json:"insts"`
	Cycles      uint64 `json:"cycles"`
	Mispredicts uint64 `json:"mispredicts"`
}

// The core phase runs the three Table I presets on the out-of-order host
// plus TAGE-L on the in-order host, whose stall-at-oldest issue uses the
// backend differently.
var coreHosts = []struct{ design, host string }{
	{"tourney", "boom"}, {"b2", "boom"}, {"tage-l", "boom"}, {"tage-l", "inorder"},
}

func coreRunNames() []string {
	var out []string
	for _, h := range coreHosts {
		out = append(out, h.design+"-"+h.host)
	}
	return out
}

func coreRuns(seed, insts, warmup uint64) ([]coreRun, error) {
	var out []coreRun
	for _, h := range coreHosts {
		s, err := spec.Preset(h.design)
		if err != nil {
			return nil, err
		}
		s.Workload, s.Host, s.Seed, s.Insts, s.Warmup = "gcc", h.host, seed, insts, warmup
		out = append(out, coreRun{h.design + "-" + h.host, s})
	}
	return out, nil
}

// expectedJSON holds the counters of every core run at the default seed,
// keyed "<run>/<insts>/<warmup>": the oracle a simulator-speed change must
// leave untouched.
//
//go:embed expected.json
var expectedJSON []byte

func expectedCounters() (map[string]counters, error) {
	var m map[string]counters
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// coreWork executes the core runs one at a time through spec.Exec, in
// whole cycles of all four, and at least two cycles so the counters can be
// checked across repetitions.  sim_insts_per_s is one cycle's measured
// instructions over the sum of each run's median spec.Exec wall time, so
// that a burst of host noise in one run moves it little.
type coreWork struct {
	b          *bench
	runs       []coreRun
	want       map[string]counters
	first      map[string]counters
	walls      map[string][]float64
	nsPerCycle map[string][]float64
	cycleWall  []time.Duration
	cycle, at  int // the next run is runs[at] of cycle
	simulated  uint64
	allocs     uint64
	allocBytes uint64
}

func (b *bench) coreWork() (*coreWork, error) {
	runs, err := coreRuns(b.seed, b.plan.insts, b.plan.warmup)
	if err != nil {
		return nil, err
	}
	want, err := expectedCounters()
	if err != nil {
		return nil, err
	}
	return &coreWork{b: b, runs: runs, want: want, first: map[string]counters{},
		walls: map[string][]float64{}, nsPerCycle: map[string][]float64{}}, nil
}

// step executes the next run.
func (w *coreWork) step() (bool, error) {
	b, r := w.b, w.runs[w.at]
	if w.at == 0 {
		w.cycleWall = append(w.cycleWall, 0)
	}
	// The first cycle of a traced run is untraced: it is the baseline of the
	// tracing overhead.
	traced := b.rec != nil && w.cycle > 0
	if traced && w.cycle == 1 && w.at == 0 {
		b.startProfile()
	}
	var sp *obs.ActiveSpan
	if traced {
		sp = b.rec.Start(obs.TraceContext{}, "core", "spec.Exec "+r.name)
	}
	b.attempted++
	meter := obs.StartResourceMeter(0)
	t0 := time.Now()
	out, err := spec.Exec(r.spec, spec.Attach{Span: sp})
	d := time.Since(t0)
	res := meter.Stop()
	sp.End()
	w.cycleWall[w.cycle] += d
	if w.at++; w.at == len(w.runs) {
		w.at = 0
		w.cycle++
	}
	whole := w.cycle >= 2 && w.at == 0
	if err != nil {
		b.fail("core %s: %v", r.name, err)
		return whole, nil
	}
	got := counters{out.Stats.Instructions, out.Stats.Cycles, out.Stats.Mispredicts}
	if c, ok := w.first[r.name]; !ok {
		w.first[r.name] = got
		key := fmt.Sprintf("%s/%d/%d", r.name, r.spec.Insts, r.spec.Warmup)
		if want, ok := w.want[key]; ok && b.seed == defaultSeed && want != got {
			b.fail("core %s: counters %+v, expected %+v at seed %d", r.name, got, want, defaultSeed)
		}
	} else if c != got {
		b.fail("core %s: counters %+v differ from the first repetition's %+v", r.name, got, c)
	}
	w.simulated += r.spec.Insts + r.spec.Warmup
	w.allocs += res.AllocObjects
	w.allocBytes += res.AllocBytes
	w.walls[r.name] = append(w.walls[r.name], d.Seconds())
	w.nsPerCycle[r.name] = append(w.nsPerCycle[r.name], out.Timings.SimulateMS*1e6/float64(out.Stats.Cycles))
	if b.plan.focus == phaseCore {
		b.timings.add(out.Timings)
	}
	return whole, nil
}

func (w *coreWork) finish() {
	m := w.b.metrics
	var insts, wall float64
	for _, r := range w.runs {
		if len(w.walls[r.name]) == 0 {
			return // every run failed; the failures are recorded
		}
		c := w.first[r.name]
		insts += float64(c.Insts)
		wall += median(w.walls[r.name])
		m.setMedian("uarch.ns_per_cycle."+r.name, "ns", w.nsPerCycle[r.name])
		m.set("sim.insts."+r.name, "count", float64(c.Insts), 1)
		m.set("sim.cycles."+r.name, "count", float64(c.Cycles), 1)
		m.set("sim.mispredicts."+r.name, "count", float64(c.Mispredicts), 1)
	}
	m.set("sim_insts_per_s", "1/s", insts/wall, w.cycle*len(w.runs))
	kinst := float64(w.simulated) / 1e3
	m.set("go.mallocs_per_kinst", "count", float64(w.allocs)/kinst, 1)
	m.set("go.alloc_bytes_per_kinst", "bytes", float64(w.allocBytes)/kinst, 1)
	if w.b.rec != nil && len(w.cycleWall) > 1 {
		m.set("trace.overhead_frac", "fraction", w.cycleWall[1].Seconds()/w.cycleWall[0].Seconds()-1, 2)
	}
}

// programNames are the workloads any phase uses: the SPEC proxies plus the
// kernels the served misses draw from.
func programNames() []string {
	return append(workloads.Names(), "dhrystone", "coremark", "fib", "sort", "dispatch")
}

// loadPrograms builds every workload on a cold memo, timing each.
func (b *bench) loadPrograms(parent *obs.ActiveSpan) error {
	for _, w := range programNames() {
		sp := parent.Child("layer", "workloads.Get "+w)
		t0 := time.Now()
		_, err := workloads.Get(w)
		b.metrics.set("workloads.get_ms."+w, "ms", ms(time.Since(t0)), 1)
		sp.End()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
	}
	return nil
}

// warmGeometry fills spec.Exec's geometry memo for every design and host the
// phases use, with one-instruction runs.
func warmGeometry() error {
	runs, err := coreRuns(defaultSeed, 1, 0)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if _, err := spec.Exec(r.spec, spec.Attach{}); err != nil {
			return fmt.Errorf("warming %s: %w", r.name, err)
		}
	}
	return nil
}

// measureCompose times the predictor pipeline on its own: construction
// (compose.New) and the steady Predict+Commit step of the harness's hot
// loop, for each Table I design.
func (b *bench) measureCompose() error {
	sp := b.rec.Start(obs.TraceContext{}, "layer", "compose.HotLoop")
	loops, err := harness.HotLoop(harness.Config{})
	sp.End()
	if err != nil {
		return err
	}
	for _, l := range loops {
		b.metrics.set("compose.step_ns."+l.Design, "ns", l.NSPerOp, 1)
		b.metrics.set("compose.steady_allocs_per_op."+l.Design, "count", l.SteadyAllocsPerOp, 1)
	}
	for _, d := range spec.PresetNames() {
		s, err := spec.Preset(d)
		if err != nil {
			return err
		}
		s.Workload = "gcc"
		c, err := s.Canonical()
		if err != nil {
			return err
		}
		opt, err := c.Pipeline.Options()
		if err != nil {
			return err
		}
		hw, err := c.ResolveCore()
		if err != nil {
			return err
		}
		topo, err := compose.ParseTopologyCached(c.Topology)
		if err != nil {
			return err
		}
		var us []float64
		for i := 0; i < 50; i++ {
			sp := b.rec.Start(obs.TraceContext{}, "layer", "compose.New "+d)
			t0 := time.Now()
			_, err := compose.New(hw.Fetch, topo, opt)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			sp.End()
			if err != nil {
				return err
			}
		}
		b.metrics.setMedian("compose.new_us."+d, "us", us)
	}
	return nil
}
