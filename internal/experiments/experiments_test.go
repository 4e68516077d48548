package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func tiny() Config { return Config{Insts: 40000, Seed: 7} }

func TestTables(t *testing.T) {
	t1 := TableI()
	if !strings.Contains(t1.String(), "tage-l") || !strings.Contains(t1.String(), "KB") {
		t.Errorf("Table I malformed:\n%s", t1)
	}
	t2 := TableII()
	if !strings.Contains(t2.String(), "128-entry ROB") {
		t.Errorf("Table II malformed:\n%s", t2)
	}
	t3 := TableIII()
	if len(t3.Rows) != 5 {
		t.Errorf("Table III rows = %d", len(t3.Rows))
	}
}

func TestFigs8And9(t *testing.T) {
	f8 := Fig8()
	for _, want := range []string{"TAGE3", "meta", "UBTB1"} {
		if !strings.Contains(f8, want) {
			t.Errorf("Fig8 missing %q", want)
		}
	}
	f9 := Fig9()
	for _, want := range []string{"branch-pred", "issue-units", "dcache"} {
		if !strings.Contains(f9, want) {
			t.Errorf("Fig9 missing %q", want)
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	rows, table, err := Fig10(Config{Insts: 15000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, sys := range Fig10Systems {
			if r.IPC[sys] <= 0 {
				t.Errorf("%s/%s: zero IPC", r.Workload, sys)
			}
		}
	}
	if !strings.Contains(table.String(), "HARMEAN") {
		t.Error("missing HARMEAN summary")
	}
}

func TestDiscussionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations each")
	}
	d1, err := SerializedFetch(tiny())
	if err != nil || len(d1.Rows) != 2 {
		t.Errorf("D1: %v %v", d1, err)
	}
	d4, err := SFB(tiny())
	if err != nil || len(d4.Rows) != 2 {
		t.Errorf("D4: %v %v", d4, err)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations each")
	}
	if loop, err := AblationLoop(tiny()); err != nil || len(loop.Rows) == 0 {
		t.Errorf("loop ablation empty: %v", err)
	}
	if ubtb, err := AblationUBTB(tiny()); err != nil || len(ubtb.Rows) == 0 {
		t.Errorf("uBTB ablation empty: %v", err)
	}
	am := AblationMetadata()
	if len(am.Rows) != 3 {
		t.Error("metadata ablation rows")
	}
	// The extra read port must cost area in every design.
	for _, r := range am.Rows {
		if !strings.Contains(r[3], "+") {
			t.Errorf("metadata ablation shows no overhead: %v", r)
		}
	}
}

func TestTraceGapSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("captures + simulations")
	}
	tg, err := TraceGap(Config{Insts: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.Rows) != 6 {
		t.Errorf("trace gap rows = %d", len(tg.Rows))
	}
}

// TestRenderFailedGridIsError: a grid whose simulations cannot finish
// fails Render with an error naming the experiment — it never panics.
func TestRenderFailedGridIsError(t *testing.T) {
	for _, id := range []string{"d1", "ablation-width", "energy", "tracegap"} {
		out, err := Render(id, Config{Insts: 200_000, Seed: 7, Timeout: time.Nanosecond})
		if err == nil {
			t.Fatalf("%s: want a timeout error, got output:\n%s", id, out)
		}
		if !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), id+": ") {
			t.Errorf("%s: error %q does not name the experiment and the deadline", id, err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error spans lines: %q", id, err)
		}
	}
}
