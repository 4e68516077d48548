package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

// golden compares got against testdata/golden/<name>, or rewrites the file
// when -update is set.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden output\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The static tables render from configuration alone — any drift is a real
// behaviour change, not simulation noise.
func TestGoldenTableI(t *testing.T)   { golden(t, "table1.txt", TableI().String()) }
func TestGoldenTableII(t *testing.T)  { golden(t, "table2.txt", TableII().String()) }
func TestGoldenTableIII(t *testing.T) { golden(t, "table3.txt", TableIII().String()) }

// TestGoldenFig10 pins a small-config Fig. 10 run.  The golden file encodes
// both the simulator's numeric behaviour and the determinism contract: the
// same bytes must come back for any Parallelism (the equivalence test covers
// that axis explicitly).
func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	_, table, err := Fig10(Config{Insts: 15_000, Seed: 42, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig10_small.txt", table.String())
}

// TestGoldenFig10Paranoid reruns the pinned Fig. 10 configuration with the
// invariant checker armed and compares against the SAME golden file: paranoid
// mode is observation-only, so the bytes must not move.
func TestGoldenFig10Paranoid(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	_, table, err := Fig10(Config{Insts: 15_000, Seed: 42, Parallelism: 2, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig10_small.txt", table.String())
}

// TestGoldenExperiments pins every simulated experiment on its own, each in
// its own golden file, at a small budget.  The files are the reference for
// any change to how grids execute: the bytes must come back unchanged for
// the serial path and for a parallel batch.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("every simulated experiment, twice")
	}
	for _, id := range Ids() {
		if !Simulated(id) {
			continue
		}
		t.Run(id, func(t *testing.T) {
			for _, j := range []int{2, 1} {
				got, err := Render(id, Config{Insts: 10_000, Seed: 42, Parallelism: j})
				if err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				golden(t, "exp_"+id+".txt", got)
				if *update {
					return
				}
			}
		})
	}
}
