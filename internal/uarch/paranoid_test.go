package uarch

import (
	"testing"

	"cobra/internal/compose"
	"cobra/internal/program"
)

// paranoidHosts are the backends the paranoid runs cover: out-of-order,
// in-order (stall-at-oldest issue, no ready queues), and a boom whose small
// ROB and issue queues keep the structural-stall paths busy.  The boom host
// has no name, so its subtests keep their original design/policy names.
func paranoidHosts() []struct {
	name string
	cfg  Config
} {
	small := DefaultConfig()
	small.ROBEntries, small.IQEntries = 16, 4
	return []struct {
		name string
		cfg  Config
	}{{"", DefaultConfig()}, {"inorder/", InOrderConfig()}, {"rob16-iq4/", small}}
}

// TestParanoidCleanOnRealRuns drives every Table I seed design through a
// mispredict-heavy workload with the invariant checker armed, on every
// paranoid host: a healthy pipeline and backend must produce zero
// violations under every GHR policy — the backend's cross-check of its
// event structures against a full ROB scan included.
func TestParanoidCleanOnRealRuns(t *testing.T) {
	b := program.NewBuilder("paranoid", 0x1000, 4, 5)
	b.Loop(50, func() {
		b.Ops(2, 0, 0, 0, nil)
		b.Hammock(0.5, 2, program.ClassALU)
	})
	prog := b.MustSeal()

	designs := []struct {
		name string
		topo string
		opt  compose.Options
	}{
		{"b2", "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16}},
		{"tourney", "TOURNEY3 > [GBIM2 > BTB2, LBIM2]",
			compose.Options{GHistBits: 32, LocalEntries: 256, LocalHistBits: 32}},
		{"tage-l", "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}},
	}
	policies := []compose.GHRPolicy{compose.GHRRepair, compose.GHRRepairReplay, compose.GHRNoRepair}

	for _, h := range paranoidHosts() {
		for _, d := range designs {
			for _, pol := range policies {
				t.Run(h.name+d.name+"/"+pol.String(), func(t *testing.T) {
					opt := d.opt
					opt.Paranoid = true
					opt.GHRPolicy = pol
					bp := mkPipeline(t, d.topo, opt)
					core := NewCore(h.cfg, bp, prog, 7)
					s := core.Run(20000)
					if s.Mispredicts == 0 {
						t.Fatal("workload produced no mispredicts; repair paths untested")
					}
					if n := bp.ViolationCount(); n != 0 {
						for _, v := range bp.Violations()[:min(3, len(bp.Violations()))] {
							t.Errorf("violation: %v", v)
						}
						t.Fatalf("%d invariant violations on a healthy pipeline", n)
					}
				})
			}
		}
	}
}

// TestParanoidCatchesBackendCorruption damages each event structure of a
// running backend in turn and checks that the next cycle's cross-check
// reports it as a structured violation of the right stage, without a panic.
func TestParanoidCatchesBackendCorruption(t *testing.T) {
	prog := tightLoop(1000, 6)
	cases := []struct {
		name, op string
		cfg      Config
		// corrupt damages c and reports whether it found anything to damage.
		corrupt func(c *Core) bool
	}{
		{"wakeup-count", "uarch.issue", DefaultConfig(), func(c *Core) bool {
			for i := 0; i < c.robCount; i++ {
				if r := c.robAt(i); r.state == 0 && r.waitOps == 0 {
					r.waitOps = 1
					return true
				}
			}
			return false
		}},
		{"ready-queue", "uarch.issue", DefaultConfig(), func(c *Core) bool {
			for iq := range c.readyQ {
				if q := &c.readyQ[iq]; q.n > 0 {
					q.n--
					return true
				}
			}
			return false
		}},
		{"in-order-wakeup-count", "uarch.issue", InOrderConfig(), func(c *Core) bool {
			for i := 0; i < c.robCount; i++ {
				if r := c.robAt(i); r.state == 0 && r.waitOps == 0 {
					r.waitOps = 1
					return true
				}
			}
			return false
		}},
		{"completion-wheel", "uarch.writeback", DefaultConfig(), func(c *Core) bool {
			// Lose an instruction due next cycle from its bucket.
			if idx := c.wheel[(c.cycle+1)&c.wheelMask]; idx >= 0 {
				c.wheelRemove(idx)
				return true
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bp := mkPipeline(t, "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16, Paranoid: true})
			c := NewCore(tc.cfg, bp, prog, 7)
			c.Run(500)
			for tries := 0; !tc.corrupt(c); tries++ {
				if tries == 1000 {
					t.Fatal("never found a state to corrupt")
				}
				c.step()
			}
			if n := bp.ViolationCount(); n != 0 {
				t.Fatalf("%d violations before the corruption", n)
			}
			c.step()
			vs := bp.Violations()
			if len(vs) == 0 {
				t.Fatal("corruption went unreported")
			}
			if vs[0].Op != tc.op || vs[0].Cycle != c.cycle {
				t.Fatalf("violation %v, want op %s at cycle %d", vs[0], tc.op, c.cycle)
			}
		})
	}
}
