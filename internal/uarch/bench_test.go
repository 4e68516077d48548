package uarch

import (
	"testing"

	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/workloads"
)

// BenchmarkCoreRun times the simulated core's cycle — frontend, predictor,
// backend and commit together — on TAGE-L over gcc for each host.  One op is
// one simulated cycle of a warmed core, so ns/op is host ns per simulated
// cycle (also reported as ns/cycle) and allocs/op must read 0.
func BenchmarkCoreRun(b *testing.B) {
	for _, h := range []struct {
		name string
		cfg  Config
	}{
		{"boom", DefaultConfig()},
		{"inorder", InOrderConfig()},
	} {
		b.Run(h.name, func(b *testing.B) {
			prog, err := workloads.Get("gcc")
			if err != nil {
				b.Fatal(err)
			}
			bp, err := compose.New(pred.DefaultConfig(),
				compose.MustParse("LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"), compose.Options{GHistBits: 64})
			if err != nil {
				b.Fatal(err)
			}
			core := NewCore(h.cfg, bp, prog, 42)
			core.Run(50_000) // warm every buffer, freelist and provider map
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}
