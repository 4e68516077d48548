// Command perfbench is COBRA-Go's benchmark: it times what an architect
// waits for — simulated instructions per host second, the small paper
// fleet cold, warm and after an edit, and runs served over HTTP — end to end
// and per module, checks every output against an oracle, and prints one
// JSON report line.  See README.md for the metric → module → workload map.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload core-long --seed 42 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cobra/internal/fleet"
	"cobra/internal/obs"
	"cobra/internal/spec"
)

const defaultSeed = spec.DefaultSeed

type phase int

const (
	phaseCore phase = iota
	phaseFleet
	phaseServe
)

// plan is one workload.  Every workload runs all three phases — core runs,
// the fleet, the served loop — interleaved, so that every metric is
// measured on every workload.  The focus phase measures for the whole
// --seconds budget; the others for minPhase.  Each phase also runs whole
// units: at least two cycles of core runs, one fleet cycle, and as many
// served operations as the tail percentiles need.
type plan struct {
	focus         phase
	insts, warmup uint64 // length of each core run
}

var plans = map[string]plan{
	"core-long": {phaseCore, 1_000_000, 100_000},
	"serve-mix": {phaseServe, 100_000, 10_000},
}

// setupRuns is how many times a run sets up (once itself, the rest in
// fresh child processes, since the workload and geometry memos cannot be
// emptied in-process); setup_s is their median.
const setupRuns = 11

// minPhase is the least time a phase measures, focus or not: enough for
// medians that one burst of host noise cannot move far.
const minPhase = 12 * time.Second

// phaseTimings collects spec.Exec phase times of the focus phase.
type phaseTimings struct{ canonicalize, workload, compose, warmup, simulate []float64 }

func (p *phaseTimings) add(t spec.Timings) {
	p.canonicalize = append(p.canonicalize, t.CanonicalizeMS)
	p.workload = append(p.workload, t.WorkloadMS)
	p.compose = append(p.compose, t.ComposeMS)
	p.warmup = append(p.warmup, t.WarmupMS)
	p.simulate = append(p.simulate, t.SimulateMS)
}

// bench is the state of one run.
type bench struct {
	workload string
	plan     plan
	seed     uint64
	workers  int
	dir      string            // scratch directory, removed at exit
	rec      *obs.SpanRecorder // nil unless traced
	profile  *bytes.Buffer     // CPU profile of a traced run
	server   *serveEnv
	goldens  map[string]string // fleet goldens; nil off the default seed

	metrics   sink
	timings   phaseTimings
	attempted int
	failed    int
	problems  []string
}

// fail records a failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// facts describes the host and the run, printed before the report.
type facts struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Samples    map[string]int `json:"samples"`
	Problems   []string       `json:"problems,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "core-long", "core-long or serve-mix")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Int("seconds", 20, "how long the focus phase measures")
	trace := fl.Int("trace", 0, "1 records spans and a CPU profile and reports per-module metrics")
	setupOnly := fl.Bool("setup-only", false, "set up, print the set-up time, and exit (used for setup_s)")
	work := fl.String("dir", ".bench_build", "directory for scratch files and trace output")
	if err := fl.Parse(args); err != nil {
		return err
	}
	p, ok := plans[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *workload, plan: p, seed: *seed, dir: dir,
		workers: runtime.NumCPU(), metrics: sink{},
	}
	if *setupOnly {
		d, err := b.setup()
		if b.server != nil {
			err = errors.Join(err, b.server.stop())
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, d.Seconds())
		return err
	}
	if *trace == 1 {
		b.rec = obs.NewSpanRecorder(obs.TraceContext{}, 1<<20)
	}
	whole := obs.StartResourceMeter(0)
	if err := b.measure(time.Duration(*seconds) * time.Second); err != nil {
		return err
	}
	heap := whole.Stop()
	b.metrics.set("go.heap_peak_mb", "MB", float64(heap.PeakHeapDeltaBytes)/1e6, 1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	b.metrics.set("peak_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6, 1)

	if *trace == 1 {
		if err := b.finishTrace(*work); err != nil {
			return err
		}
	} else if err := b.setupChildren(*workload, *seed, *work); err != nil {
		return err
	}
	return b.report(stdout, *seconds, *trace == 1)
}

// setup does everything a run needs before its first timed operation and
// returns how long it took.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	sp := b.rec.Start(obs.TraceContext{}, "setup", "setup")
	defer sp.End()
	if err := b.loadPrograms(sp); err != nil {
		return 0, err
	}
	if err := warmGeometry(); err != nil {
		return 0, err
	}
	if _, err := fleet.Parse(fleetSource(b.seed)); err != nil {
		return 0, err
	}
	if b.seed == defaultSeed {
		g, err := loadGoldens()
		if err != nil {
			return 0, err
		}
		b.goldens = g
	}
	sdir, err := os.MkdirTemp(b.dir, "serve-")
	if err != nil {
		return 0, err
	}
	if b.server, err = startServer(sdir, b.workers); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// measure sets up and runs the three phases.
func (b *bench) measure(budget time.Duration) (err error) {
	d, err := b.setup()
	if b.server != nil {
		defer func() {
			if serr := b.server.stop(); serr != nil && err == nil {
				err = fmt.Errorf("stopping the server: %w", serr)
			}
		}()
	}
	if err != nil {
		return err
	}
	b.metrics.set("setup_s", "s", d.Seconds(), 1)
	if b.rec != nil {
		if err := b.measureCompose(); err != nil {
			return err
		}
	}
	core, err := b.coreWork()
	if err != nil {
		return err
	}
	b.interleave([]work{core, b.fleetWork(), b.serveWork()}, budget) // in phase order
	t := &b.timings
	for name, xs := range map[string][]float64{
		"canonicalize": t.canonicalize, "workload": t.workload, "compose": t.compose,
		"warmup": t.warmup, "simulate": t.simulate,
	} {
		b.metrics.setMedian("spec."+name+"_ms", "ms", xs)
	}
	return nil
}

// work is one phase's work, done a unit at a time.
type work interface {
	// step does one unit of work and reports whether the phase could stop
	// after it: its minimum is met and it is at a unit boundary.
	step() (bool, error)
	// finish reports the phase's metrics.
	finish()
}

// interleave runs the phases' units in turn, always the phase that has
// spent the least share of its budget, until each has spent its budget
// (focus phase: budget; the others: minPhase) and may stop.  Spreading every
// phase over the whole run averages drifts of host speed into all of them
// alike, where phases run one after another would each see one stretch.
func (b *bench) interleave(works []work, budget time.Duration) {
	type state struct {
		work          work
		spent, budget time.Duration
		stop, dropped bool
	}
	var states []*state
	for i, w := range works {
		bud := minPhase
		if phase(i) == b.plan.focus {
			bud = max(budget, minPhase)
		}
		states = append(states, &state{work: w, budget: bud})
	}
	share := func(s *state) float64 { return s.spent.Seconds() / s.budget.Seconds() }
	for {
		var next *state
		for _, s := range states {
			if s.dropped || s.stop && s.spent >= s.budget {
				continue
			}
			if next == nil || share(s) < share(next) {
				next = s
			}
		}
		if next == nil {
			break
		}
		t0 := time.Now()
		stop, err := next.work.step()
		next.spent += time.Since(t0)
		next.stop = stop
		if err != nil {
			b.fail("%v", err)
			next.dropped = true
		}
	}
	for _, s := range states {
		s.work.finish()
	}
}

// setupChildren measures set-up again in fresh processes and reports the
// median of all set-ups as setup_s.
func (b *bench) setupChildren(workload string, seed uint64, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	xs := []float64{b.metrics["setup_s"].Value}
	for i := 1; i < setupRuns; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "--setup-only", "--workload", workload,
			"--seed", fmt.Sprint(seed), "--dir", work)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up child: %w", err)
		}
		var s float64
		if _, err := fmt.Sscan(out.String(), &s); err != nil {
			return fmt.Errorf("set-up child printed %q: %w", out.String(), err)
		}
		xs = append(xs, s)
	}
	b.metrics.setMedian("setup_s", "s", xs)
	return nil
}

// report prints the host facts and then the report line.
func (b *bench) report(w io.Writer, seconds int, traced bool) error {
	b.metrics.set("ops_ok_frac", "fraction", 1-float64(b.failed)/float64(max(b.attempted, 1)), b.attempted)
	b.metrics.set("ops_failed_frac", "fraction", float64(b.failed)/float64(max(b.attempted, 1)), b.attempted)
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	picked, err := b.metrics.pick(defs)
	if err != nil {
		return errors.Join(err, fmt.Errorf("problems: %s", strings.Join(b.problems, "; ")))
	}
	f := facts{
		Workload: b.workload, Seed: b.seed, Seconds: seconds, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
		Samples: map[string]int{}, Problems: b.problems,
	}
	for name, v := range picked {
		f.Samples[name] = v.samples
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(f); err != nil {
		return err
	}
	return enc.Encode(report{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: picked,
	})
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
