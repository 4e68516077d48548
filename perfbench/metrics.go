package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"

	"cobra/internal/spec"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// def declares one reported metric.  BENCHMARK.json lists the same names
// and units (with the direction and regression bound); the tests hold the
// two in step.
type def struct{ name, unit string }

// endToEnd are the metrics a user of COBRA waits on.  Every workload
// reports all of them: each run goes through all three phases (see plan).
var endToEnd = []def{
	{"setup_s", "s"},
	{"sim_insts_per_s", "1/s"},
	{"fleet_cold_s", "s"},
	{"fleet_warm_ms", "ms"},
	{"fleet_cone_s", "s"},
	{"serve_hit_p50_ms", "ms"},
	{"serve_hit_p90_ms", "ms"},
	{"serve_miss_p50_ms", "ms"},
	{"serve_miss_p90_ms", "ms"},
	{"serve_first_progress_p50_ms", "ms"},
	{"serve_req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ops_ok_frac", "fraction"},
}

// cpuClasses are the leaf-package buckets of the traced run's CPU profile.
var cpuClasses = []string{"uarch", "compose", "components", "history", "bitutil", "program", "serve", "runtime", "other"}

// selfTracks are the span tracks whose self time the traced run reports.
var selfTracks = []string{"setup", "core", "exec", "fleet", "runner", "serve", "http", "layer"}

// fleetServices are the services of the benchmark's copy of the small
// paper fleet, in file order.
var fleetServices = []string{"table1", "table2", "table3", "fig10", "baseline", "sweep", "tables", "paper"}

// perLayer returns the per-module metrics of the traced run.
func perLayer() []def {
	var out []def
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, def{n, unit})
		}
	}
	for _, d := range spec.PresetNames() {
		add("ns", "compose.step_ns."+d)
		add("us", "compose.new_us."+d)
		add("count", "compose.steady_allocs_per_op."+d)
	}
	for _, r := range coreRunNames() {
		add("ns", "uarch.ns_per_cycle."+r)
		add("count", "sim.insts."+r, "sim.cycles."+r, "sim.mispredicts."+r)
	}
	for _, p := range []string{"canonicalize", "workload", "compose", "warmup", "simulate"} {
		add("ms", "spec."+p+"_ms")
	}
	for _, w := range programNames() {
		add("ms", "workloads.get_ms."+w)
	}
	add("fraction", "runner.busy_frac")
	add("ms", "runner.job_wall_p50_ms", "runner.job_wall_max_ms")
	for _, s := range fleetServices {
		add("s", "fleet.svc_s."+s)
	}
	add("ms", "fleet.parse_ms", "fleet.digest_ms")
	for _, step := range []string{"cold", "warm", "cone"} {
		add("count", "fleet.executed."+step, "fleet.skipped."+step)
	}
	add("ms", "serve.hit_p99_ms", "serve.submit_ms", "serve.queue_wait_ms", "serve.exec_ms")
	add("bytes", "serve.hit_body_bytes")
	add("count", "serve.sse_frames_per_miss")
	add("fraction", "serve.coalesced_frac")
	add("count", "serve.rejected_429", "serve.job_retries")
	add("count", "go.mallocs_per_kinst")
	add("bytes", "go.alloc_bytes_per_kinst")
	add("count", "go.gc_cycles")
	add("ms", "go.gc_pause_ms")
	add("MB", "go.heap_peak_mb")
	for _, c := range cpuClasses {
		add("fraction", "cpu."+c+"_frac")
	}
	for _, t := range selfTracks {
		add("ms", "self_ms."+t)
	}
	add("fraction", "trace.overhead_frac", "ops_failed_frac")
	return out
}

// value is one reported metric: the number, its unit, and how many samples
// it summarizes.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// sink collects the metrics of one run.
type sink map[string]value

func (s sink) set(name, unit string, v float64, samples int) {
	s[name] = value{Value: v, Unit: unit, samples: samples}
}

// setMedian records the median of xs; nothing when xs is empty.
func (s sink) setMedian(name, unit string, xs []float64) {
	if len(xs) > 0 {
		s.set(name, unit, median(xs), len(xs))
	}
}

// setPercentile records the q-quantile of xs when enough samples back it.
func (s sink) setPercentile(name, unit string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		s.set(name, unit, v, len(xs))
	}
}

// pick returns the declared metrics from s, failing when one is missing or
// carries another unit than declared.
func (s sink) pick(defs []def) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := s[d.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case v.Unit != d.unit:
			return nil, fmt.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
		out[d.name] = v
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, and false when
// fewer than minBeyond samples lie above it: a tail figure resting on a
// handful of samples is noise.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if beyond(n, q) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(n, q)-1, 0)], true
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int { return int(math.Ceil(q * float64(n))) }

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - max(rank(n, q), 1) }

// samplesNeeded is the smallest sample count percentile(_, q) accepts.
func samplesNeeded(q float64) int {
	n := minBeyond + 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
