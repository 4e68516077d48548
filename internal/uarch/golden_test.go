package uarch_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobra/internal/spec"
	"cobra/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite testdata/backend_matrix.txt")

// matrixHosts are the backend configurations the golden matrix pins: both
// issue disciplines, the two frontend variants that reshape what reaches
// dispatch, and a small boom whose ROB and issue queues fill constantly so
// the structural-stall paths run every few cycles.
func matrixHosts() []struct {
	name string
	cfg  uarch.Config
} {
	small := uarch.DefaultConfig()
	small.ROBEntries, small.IQEntries = 16, 4
	serial := uarch.DefaultConfig()
	serial.SerializedFetch = true
	sfb := uarch.DefaultConfig()
	sfb.SFB = true
	return []struct {
		name string
		cfg  uarch.Config
	}{
		{"boom", uarch.DefaultConfig()},
		{"inorder", uarch.InOrderConfig()},
		{"boom-serialized", serial},
		{"boom-sfb", sfb},
		{"boom-rob16-iq4", small},
	}
}

// TestBackendGoldenMatrix pins cycles, mispredicts and the interval content
// hash of every host × Table I design × workload cell.  Any change to the
// backend's issue, writeback, flush or commit order moves at least one cell,
// so a simulator-speed change must leave this file byte-identical.
func TestBackendGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("45 simulations")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# host design workload: cycles mispredicts interval-hash (50k insts, seed %d)\n", spec.DefaultSeed)
	for _, h := range matrixHosts() {
		for _, design := range spec.PresetNames() {
			for _, wl := range []string{"gcc", "mcf", "dhrystone"} {
				s, err := spec.Preset(design)
				if err != nil {
					t.Fatal(err)
				}
				cfg := h.cfg
				s.Workload, s.Insts, s.Core = wl, 50_000, &cfg
				s.Observe.IntervalInsts = 10_000
				out, err := spec.Exec(s, spec.Attach{})
				if err != nil {
					t.Fatalf("%s %s %s: %v", h.name, design, wl, err)
				}
				fmt.Fprintf(&b, "%s %s %s: %d %d %s\n", h.name, design, wl,
					out.Stats.Cycles, out.Stats.Mispredicts, out.Intervals.ContentHash())
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "backend_matrix.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/uarch -run TestBackendGoldenMatrix -update)", err)
	}
	if got != string(want) {
		t.Errorf("backend golden matrix drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
