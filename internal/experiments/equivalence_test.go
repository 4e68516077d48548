package experiments

import (
	"runtime"
	"testing"
)

// TestParallelismEquivalence is the end-to-end determinism guarantee: the
// rendered experiment tables — not just raw counters — must be byte-identical
// whether the batch runs serially, on 4 workers, or on every core.  Fig. 10
// (the full workload × system grid) and the predictor shootout together cover
// every job-construction path the experiments use.
func TestParallelismEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of simulations")
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, name := range []string{"fig10", "shootout"} {
		t.Run(name, func(t *testing.T) {
			var base string
			for i, j := range levels {
				got, err := Render(name, Config{Insts: 50_000, Seed: 42, Parallelism: j})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base = got
					continue
				}
				if got != base {
					t.Errorf("-j %d output differs from -j %d\n--- j=%d ---\n%s--- j=%d ---\n%s",
						j, levels[0], levels[0], base, j, got)
				}
			}
		})
	}
}
