package runner

import (
	"testing"

	"cobra/internal/obs"
	"cobra/internal/spec"
)

// observeWith attaches one shared observer to every job.
func observeWith(o obs.Observer) func(int) spec.Attach {
	return func(int) spec.Attach { return spec.Attach{Observer: o} }
}

// TestSharedTracerParallelBatch attaches ONE tracer to every pipeline of a
// parallel batch; under -race this proves the Tracer (and every emit site
// feeding it) is safe when jobs run concurrently.
func TestSharedTracerParallelBatch(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	if _, err := RunSpecs(testSpecs(5_000), Options{Workers: 4, AttachFor: observeWith(tr)}); err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("shared tracer observed no events")
	}
	for _, ev := range tr.Events() {
		if ev.Kind.String() == "invalid" {
			t.Fatalf("invalid event kind %d in shared tracer", ev.Kind)
		}
	}
}

// TestObserverDoesNotChangeResults is the zero-cost contract at batch level:
// attaching an observer, metrics, and attribution must leave every counter
// bit-identical.
func TestObserverDoesNotChangeResults(t *testing.T) {
	specs := testSpecs(10_000)
	plain, err := RunSpecs(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	observed := testSpecs(10_000)
	for _, s := range observed {
		s.Observe.Attribution = true
	}
	full, err := RunSpecs(observed, Options{Workers: 2, Metrics: obs.NewMetrics(),
		AttachFor: observeWith(obs.NewTracer(256))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if fp(sim(plain, i)) != fp(sim(full, i)) {
			t.Fatalf("job %d diverged under observation: plain %+v observed %+v",
				i, fp(sim(plain, i)), fp(sim(full, i)))
		}
	}
}

// TestAttributionMatchesCounters checks the H2P acceptance invariant on every
// job of a batch: the per-PC mispredict sum equals the Sim counter, and the
// exec sum equals the committed control-flow total.
func TestAttributionMatchesCounters(t *testing.T) {
	specs := testSpecs(10_000)
	for _, s := range specs {
		s.Observe.Attribution = true
	}
	full, err := RunSpecs(specs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range full {
		prof, s := r.Outcome.Profile, r.Outcome.Stats
		if prof == nil {
			t.Fatalf("job %d: Attribution set but no profile", i)
		}
		if got, want := prof.TotalMispredicts(), s.Mispredicts; got != want {
			t.Errorf("job %d: profile mispredicts %d != counter %d", i, got, want)
		}
		cfis := s.Branches + s.Jumps + s.IndirectJumps
		if got := prof.TotalExecs(); got != cfis {
			t.Errorf("job %d: profile execs %d != committed CFIs %d", i, got, cfis)
		}
		if r.Wall <= 0 {
			t.Errorf("job %d: wall-clock not recorded", i)
		}
	}
}

// TestMetricsAccounting checks the runner's job accounting against a batch
// with one deliberately failing job.
func TestMetricsAccounting(t *testing.T) {
	specs := append(testSpecs(5_000), &spec.RunSpec{Topology: "NOPE9", Workload: "dhrystone", Insts: 1})
	met := obs.NewMetrics()
	_, err := RunSpecs(specs, Options{Workers: 2, Policy: CollectAll, Metrics: met})
	if err == nil {
		t.Fatal("expected a batch error from the poisoned job")
	}
	s := met.Snap()
	if s.JobsTotal != uint64(len(specs)) || s.JobsDone != uint64(len(specs)) || s.JobsFailed != 1 {
		t.Fatalf("accounting: %+v", s)
	}
	if s.Cycles == 0 || s.Instructions == 0 {
		t.Fatalf("no simulated work recorded: %+v", s)
	}
}
