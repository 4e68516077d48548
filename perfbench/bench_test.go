package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"cobra/internal/obs"
	"cobra/internal/spec"
)

var update = flag.Bool("update", false, "rewrite expected.json")

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself to time set-up in a fresh process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json that must agree with the
// metrics the program declares.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range bj.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	var program []string
	for _, d := range endToEnd {
		program = append(program, d.name+" "+d.unit)
	}
	if strings.Join(declared, ",") != strings.Join(program, ",") {
		t.Errorf("end_to_end in BENCHMARK.json\n  %v\ndiffers from the program's\n  %v", declared, program)
	}
	declared, program = nil, nil
	for _, m := range bj.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, d := range perLayer() {
		program = append(program, d.name+" "+d.unit)
	}
	if strings.Join(declared, ",") != strings.Join(program, ",") {
		t.Errorf("per_layer in BENCHMARK.json\n  %v\ndiffers from the program's\n  %v", declared, program)
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	var planned []string
	for w := range plans {
		planned = append(planned, w)
	}
	sort.Strings(workloads)
	sort.Strings(planned)
	if fmt.Sprint(workloads) != fmt.Sprint(planned) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in the program", workloads, planned)
	}

	seen := map[string]bool{}
	for _, d := range append(append([]def(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := samplesNeeded(c.q); got != c.need {
			t.Errorf("samplesNeeded(%v) = %d, want %d", c.q, got, c.need)
		}
		xs := make([]float64, c.need)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, ok := percentile(xs[:c.need-1], c.q); ok {
			t.Errorf("p%v of %d samples was reported with fewer than 10 beyond it", c.q*100, c.need-1)
		}
		v, ok := percentile(xs, c.q)
		if !ok {
			t.Errorf("p%v of %d samples was refused", c.q*100, c.need)
		}
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != minBeyond {
			t.Errorf("p%v of %d samples has %d samples beyond it, want %d", c.q*100, c.need, above, minBeyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{Track: "serve", SpanID: "p", StartUS: 0, DurUS: 100},
		{Track: "http", SpanID: "a", Parent: "p", StartUS: 10, DurUS: 20},
		{Track: "http", SpanID: "b", Parent: "p", StartUS: 20, DurUS: 30},
		{Track: "http", SpanID: "c", Parent: "p", StartUS: 90, DurUS: 30},
	}
	got := selfTimes(spans)
	// The children cover 10..50 and 90..100 of the parent.
	if got["serve"] != 0.05 || got["http"] != 0.08 {
		t.Errorf("self times %v, want serve 0.05 ms and http 0.08 ms", got)
	}
}

func TestCPUFractionsSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := spec.Preset("tage-l")
	if err != nil {
		t.Fatal(err)
	}
	s.Workload, s.Insts = "gcc", 300_000
	_, err = spec.Exec(s, spec.Attach{})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	fracs, samples, err := cpuFractions(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range cpuClasses {
		sum += fracs[c]
	}
	if math.Abs(sum-1) > 1e-9 || samples == 0 {
		t.Errorf("fractions %v over %d samples sum to %v", fracs, samples, sum)
	}
	if fracs["uarch"]+fracs["compose"]+fracs["components"] < 0.3 {
		t.Errorf("a simulation profile attributes under 30%% to the simulator: %v", fracs)
	}
}

func TestClassOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cobra/internal/uarch.(*Core).issue":         "uarch",
		"cobra/internal/compose.(*Pipeline).Predict": "compose",
		"cobra/internal/spec.Exec":                   "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"encoding/json.Marshal":                      "other",
		"":                                           "other",
	} {
		if got := classOf(fn); got != want {
			t.Errorf("classOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestExpectedCounters checks expected.json against fresh runs; -update
// rewrites it.
func TestExpectedCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every core run at every length")
	}
	got := map[string]counters{}
	for _, p := range plans {
		runs, err := coreRuns(defaultSeed, p.insts, p.warmup)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			key := fmt.Sprintf("%s/%d/%d", r.name, p.insts, p.warmup)
			if _, ok := got[key]; ok {
				continue
			}
			out, err := spec.Exec(r.spec, spec.Attach{})
			if err != nil {
				t.Fatal(err)
			}
			got[key] = counters{out.Stats.Instructions, out.Stats.Cycles, out.Stats.Mispredicts}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := expectedCounters()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("counters\n  %v\ndiffer from expected.json\n  %v", got, want)
	}
}

// TestSmoke runs every workload at a tiny budget, untraced and traced, and
// checks that each reports every declared metric with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	saved := plans["core-long"]
	plans["core-long"] = plan{phaseCore, 20_000, 2_000} // tiny budget, not in expected.json
	defer func() { plans["core-long"] = saved }()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the goldens sit under the repository root
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck
	dir := t.TempDir()
	for w := range plans {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"--workload", w, "--seconds", "0", "--trace", trace, "--dir", dir}, &out)
			if err != nil {
				t.Fatalf("%s trace %s: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]value
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer()
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace %s: correct %v, %d of %d failed, %d metrics (want %d)\n%s",
					w, trace, rep.Correct, rep.Failed, rep.Attempted, len(rep.Metrics), len(defs), out.String())
			}
			if trace == "1" && rep.Metrics["ops_failed_frac"].Value != 0 {
				t.Errorf("%s: ops_failed_frac %v", w, rep.Metrics["ops_failed_frac"].Value)
			}
		}
	}
}
