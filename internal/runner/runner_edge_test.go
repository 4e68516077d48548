package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cobra/internal/pred"
	"cobra/internal/spec"
)

// bomb wraps a real component and panics after a number of predictions —
// modelling a buggy third-party component detonating mid-simulation.
type bomb struct {
	pred.Subcomponent
	n int
}

func (b *bomb) Predict(q *pred.Query) pred.Response {
	b.n++
	if b.n > 100 {
		panic("bomb: injected component failure")
	}
	return b.Subcomponent.Predict(q)
}

// bombAt arms the BIM2 instance of job bad's pipeline with a bomb.
func bombAt(bad int) func(int) spec.Attach {
	return func(i int) spec.Attach {
		if i != bad {
			return spec.Attach{}
		}
		return spec.Attach{Wrap: func(c pred.Subcomponent) pred.Subcomponent {
			if c.Name() == "BIM2" {
				return &bomb{Subcomponent: c}
			}
			return c
		}}
	}
}

// gbim is a small healthy job.
func gbim(insts uint64) *spec.RunSpec {
	return &spec.RunSpec{Topology: "GBIM3 > BTB2 > BIM2", Pipeline: spec.Pipeline{GHistBits: 32},
		Workload: "gcc", Seed: 1, Insts: insts}
}

func TestRunEmptyBatch(t *testing.T) {
	res, err := RunSpecs(nil, Options{Workers: 4})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

func TestWorkersExceedJobs(t *testing.T) {
	specs := testSpecs(5_000)[:2]
	res, err := RunSpecs(specs, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if s := sim(res, i); s == nil || s.Instructions < 5_000 {
			t.Fatalf("job %d incomplete: %+v", i, s)
		}
	}
}

// TestPanicIsolatedCollectAll: a panicking job becomes a JobError carrying
// the panic value and stack while every other job still returns its result.
func TestPanicIsolatedCollectAll(t *testing.T) {
	ok := gbim(10_000)
	res, err := RunSpecs([]*spec.RunSpec{ok, ok, ok},
		Options{Workers: 2, Policy: CollectAll, AttachFor: bombAt(1)})
	var batch *BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(batch.Errs) != 1 || batch.Errs[0].Index != 1 || batch.Total != 3 {
		t.Fatalf("unexpected batch error shape: %v", batch)
	}
	var pe *PanicError
	if !errors.As(batch.Errs[0], &pe) {
		t.Fatalf("job error does not wrap *PanicError: %v", batch.Errs[0])
	}
	if !strings.Contains(pe.Error(), "bomb:") || !strings.Contains(string(pe.Stack), "Predict") {
		t.Errorf("panic error lost value or stack: %v", pe)
	}
	if !strings.Contains(batch.Errs[0].Error(), "job 1") {
		t.Errorf("job error does not identify the job: %v", batch.Errs[0])
	}
	for _, i := range []int{0, 2} {
		if s := sim(res, i); s == nil || s.Instructions < 10_000 {
			t.Errorf("healthy job %d lost its result: %+v", i, s)
		}
	}
	if res[1].Outcome != nil {
		t.Error("failed job left a non-nil result")
	}
}

// TestPanicFailFast: under the default policy the recovered panic is the
// root-cause error, never a cancellation cascade.
func TestPanicFailFast(t *testing.T) {
	ok := gbim(200_000)
	bad := gbim(10_000)
	res, err := RunSpecs([]*spec.RunSpec{ok, bad, ok, ok}, Options{Workers: 2, AttachFor: bombAt(1)})
	if res != nil {
		t.Error("fail-fast batch returned partial results")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("want job 1's *JobError, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root cause reported as cancellation cascade: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("fail-fast error does not wrap the panic: %v", err)
	}
}

// TestCancelMidBatch: cancelling the batch context aborts in-flight jobs
// cooperatively and the batch reports the cancellation.
func TestCancelMidBatch(t *testing.T) {
	specs := make([]*spec.RunSpec, 4)
	for i := range specs {
		specs[i] = gbim(500_000_000)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunSpecs(specs, Options{Workers: 2, Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res != nil)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation not cooperative: batch ran %v", elapsed)
	}
}

// TestTimeoutWhileOthersComplete: a per-job timeout kills only the
// overrunning job; the rest of the batch completes and keeps its results.
func TestTimeoutWhileOthersComplete(t *testing.T) {
	small := gbim(10_000)
	specs := []*spec.RunSpec{gbim(2_000_000_000), small, small, small}
	res, err := RunSpecs(specs, Options{Workers: 2, Policy: CollectAll,
		Timeout: 2 * time.Second})
	var batch *BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(batch.Errs) != 1 || batch.Errs[0].Index != 0 {
		t.Fatalf("unexpected failures: %v", batch)
	}
	if !errors.Is(batch.Errs[0], context.DeadlineExceeded) {
		t.Fatalf("overrunning job error %v, want deadline exceeded", batch.Errs[0])
	}
	for i := 1; i < len(specs); i++ {
		if s := sim(res, i); s == nil || s.Instructions < 10_000 {
			t.Errorf("job %d within budget lost its result: %+v", i, s)
		}
	}
}
