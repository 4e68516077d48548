package runner

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"cobra/internal/obs"
	"cobra/internal/spec"
)

// SpecResult pairs one spec's execution outcome with runner bookkeeping.
type SpecResult struct {
	// Spec is the canonical form that actually ran (defaults explicit,
	// workload hash pinned) — the form whose Digest keys result caches.
	Spec *spec.RunSpec
	// Outcome carries the counters, pipeline handle, captured events, and
	// attribution profile.
	Outcome *spec.Outcome
	// Wall is the job's wall-clock run time (telemetry only).
	Wall time.Duration
}

// RunSpecs executes the canonical run each spec describes, fanned out across
// opt.Workers with a deterministic merge, panic containment, per-job
// timeouts, metrics accounting, and the opt.Policy failure handling.  Every
// spec runs with its own seed, so each result is bit-identical to a direct
// cobra-sim/cobra.Run of the same spec.  Specs are not mutated: each job
// runs its canonical copy, returned in SpecResult.Spec.
//
// Failures follow opt.Policy: FailFast cancels the rest of the batch and
// returns (nil, *JobError) for the root cause; CollectAll runs everything
// and returns the successful results alongside a *BatchError (failed jobs
// leave zero SpecResults at their index).
func RunSpecs(specs []*spec.RunSpec, opt Options) ([]SpecResult, error) {
	n := len(specs)
	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	bctx, cancel := context.WithCancel(base)
	defer cancel()
	met := opt.Metrics
	met.AddJobs(n)
	type slot struct {
		res SpecResult
		err error
	}
	rs := Map(opt.Workers, n, func(i int) slot {
		ctx := bctx
		stop := context.CancelFunc(func() {})
		if opt.Timeout > 0 {
			ctx, stop = context.WithTimeout(bctx, opt.Timeout)
		}
		met.JobStarted()
		res, err := runOne(ctx, i, specs[i], opt, met)
		stop()
		met.JobDone(err != nil)
		if err != nil && opt.Policy == FailFast {
			cancel()
		}
		return slot{res, err}
	})
	out := make([]SpecResult, n)
	var errs []*JobError
	for i, r := range rs {
		if r.err != nil {
			errs = append(errs, &JobError{Index: i, Topology: specs[i].Topology,
				Workload: "workload " + specs[i].Workload, Err: r.err})
			continue
		}
		out[i] = r.res
	}
	if len(errs) == 0 {
		return out, nil
	}
	if opt.Policy == CollectAll {
		return out, &BatchError{Total: n, Errs: errs}
	}
	// FailFast: return the root cause, not the cancellation cascade it
	// triggered in later-draining jobs.
	for _, e := range errs {
		if !errors.Is(e.Err, context.Canceled) {
			return nil, e
		}
	}
	return nil, errs[0]
}

// runOne executes job i with its attachments and records its telemetry.
func runOne(ctx context.Context, i int, s *spec.RunSpec, opt Options, met *obs.Metrics) (SpecResult, error) {
	var at spec.Attach
	if opt.AttachFor != nil {
		at = opt.AttachFor(i)
	}
	at.Ctx, at.Metrics = ctx, met
	span := at.Span.Child("exec", "run")
	span.SetAttr("topology", s.Topology)
	span.SetAttr("workload", s.Workload)
	at.Span = span
	begin := time.Now()
	res, err := safeExec(ctx, s, at)
	res.Wall = time.Since(begin)
	var insts uint64
	if res.Outcome != nil && res.Outcome.Stats != nil {
		insts = res.Outcome.Stats.Instructions
		// Surface silent event-ring overflow on /metrics.
		met.AddEventDrops(res.Outcome.EventsTotal - uint64(len(res.Outcome.Events)))
	}
	met.ObserveJob(res.Wall, insts)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return res, err
}

// safeExec is spec.Exec behind the runner's recover boundary: a panicking
// job (component bug, watchdog deadlock, poisoned workload) becomes a
// *PanicError carrying the panic value and stack instead of killing the
// process.
func safeExec(ctx context.Context, s *spec.RunSpec, at spec.Attach) (res SpecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return SpecResult{}, err // batch already cancelled; don't start
	}
	c, err := s.Canonical()
	if err != nil {
		return SpecResult{}, err
	}
	out, err := spec.Exec(c, at)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr // report the cancellation, not its downstream wrapping
		}
		return SpecResult{}, err
	}
	return SpecResult{Spec: c, Outcome: out}, nil
}
