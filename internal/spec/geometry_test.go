package spec

import (
	"errors"
	"testing"

	"cobra/internal/pred"
	"cobra/internal/uarch"
	"cobra/internal/workloads"
)

// wideSpec is the §III-C 8x2-byte RVC fetch geometry on workload w.
func wideSpec(w string) *RunSpec {
	core := uarch.DefaultConfig()
	core.Fetch = pred.Config{FetchWidth: 8, InstBytes: 2}
	return &RunSpec{
		Topology: "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1",
		Pipeline: Pipeline{GHistBits: 64},
		Workload: w,
		Seed:     2949826092126892291, // runner.Derive(42, 1)
		Insts:    20_000,
		Core:     &core,
	}
}

// TestWideFetchRuns: a spec whose core fetches 2-byte instructions runs on
// the workload's 2-byte image, and its counters are the ablation-width
// 8-wide gcc cell's (seed Derive(42, 1), 20k instructions) as measured
// before the fetch geometry moved into the spec.
func TestWideFetchRuns(t *testing.T) {
	out, err := Exec(wideSpec("gcc"), Attach{})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	got := [5]uint64{s.Cycles, s.Instructions, s.Mispredicts, s.Branches, s.DirMispredicts}
	want := [5]uint64{36917, 20002, 828, 2770, 825}
	if got != want {
		t.Errorf("8x2 gcc counters (cycles, insts, misp, branches, dir misp) = %v, want %v", got, want)
	}
}

// TestWorkloadHashFollowsFetchWidth: the workload is pinned at the width
// the core fetches, so the 2-byte spec cannot alias a 4-byte result.
func TestWorkloadHashFollowsFetchWidth(t *testing.T) {
	wide, err := wideSpec("gcc").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	narrow := wideSpec("gcc")
	narrow.Core = nil
	if err := narrow.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	four, _ := workloads.Fingerprint("gcc")
	if narrow.WorkloadHash != four {
		t.Errorf("4-byte spec hash %s, want the workload fingerprint %s", narrow.WorkloadHash, four)
	}
	if wide.WorkloadHash == narrow.WorkloadHash {
		t.Error("2-byte and 4-byte specs pin the same workload hash")
	}
	// A 4-byte hash pinned on a 2-byte core is stale.
	stale := wideSpec("gcc")
	stale.WorkloadHash = four
	if err := stale.Validate(); err == nil {
		t.Error("4-byte workload hash accepted for a 2-byte core")
	}
}

// TestWideFetchNeedsWidthVariant: workloads that exist at 4 bytes only are
// rejected for any other width with a structured error, before Exec.
func TestWideFetchNeedsWidthVariant(t *testing.T) {
	for _, w := range []string{"dhrystone", "coremark", "sort", "fib", "dispatch"} {
		err := wideSpec(w).Validate()
		var ge *workloads.GeometryError
		if !errors.As(err, &ge) || ge.Workload != w || ge.InstBytes != 2 {
			t.Errorf("%s at 2 bytes: got %v, want a *workloads.GeometryError", w, err)
		}
	}
	bad := wideSpec("gcc")
	bad.Core.Fetch.InstBytes = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two instruction width accepted")
	}
}
