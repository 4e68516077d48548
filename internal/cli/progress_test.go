package cli

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/obs"
	"cobra/internal/runner"
	"cobra/internal/spec"
)

// syncBuffer is a goroutine-safe bytes.Buffer for the progress writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProgressReporting drives the periodic status line with a tiny period
// over a running batch and checks the heartbeat carries the job totals.
func TestProgressReporting(t *testing.T) {
	var buf syncBuffer
	met := obs.NewMetrics()
	stop := reportProgress(&buf, time.Millisecond, met)
	var specs []*spec.RunSpec
	for _, w := range []string{"dhrystone", "gcc", "sort", "leela"} {
		specs = append(specs, &spec.RunSpec{Topology: "GBIM3 > BTB2 > BIM2", Workload: w, Insts: 20_000})
	}
	if _, err := runner.RunSpecs(specs, runner.Options{Workers: 2, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // at least one tick after the batch
	stop()
	out := buf.String()
	if !strings.Contains(out, "jobs done") {
		t.Fatalf("no progress heartbeat written; got %q", out)
	}
	if !strings.Contains(out, "4/4 jobs done") {
		t.Errorf("heartbeat never reported the finished batch; got %q", out)
	}
	// Stop waited for the reporter: nothing is written afterwards.
	n := len(buf.String())
	time.Sleep(5 * time.Millisecond)
	if len(buf.String()) != n {
		t.Error("status line still written after stop")
	}
}
