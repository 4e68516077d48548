package compose

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cobra/internal/components"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// stageSpy wraps a component to capture what it saw and answered at its
// response stage, and to catch writes to q.In or its packets (which are
// views that may alias other nodes' outputs or the shared empty packet).
type stageSpy struct {
	pred.Subcomponent
	in    []pred.Packet // copies of q.In at the last predict
	resp  pred.Packet   // copy of the last overlay
	wrote string        // first input write seen, "" when none
}

func (s *stageSpy) UsesLocalHistory() bool {
	lu, ok := s.Subcomponent.(interface{ UsesLocalHistory() bool })
	return ok && lu.UsesLocalHistory()
}

func (s *stageSpy) Predict(q *pred.Query) pred.Response {
	s.in = s.in[:0]
	for _, pk := range q.In {
		s.in = append(s.in, pk.Clone())
	}
	headers := append([]pred.Packet(nil), q.In...)
	r := s.Subcomponent.Predict(q)
	for i, pk := range q.In {
		if s.wrote == "" && (!sameSlice(pk, headers[i]) || !packetsEqual(pk, s.in[i])) {
			s.wrote = fmt.Sprintf("%s wrote its input %d at pc %#x", s.Name(), i, q.PC)
		}
	}
	s.resp = r.Overlay.Clone()
	return r
}

func packetsEqual(a, b pred.Packet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceStages is the full per-stage re-overlay: every node's output is
// recomputed at every stage — a copy of its primary input below its
// latency, its overlay applied over the primary input from its latency on —
// from the overlays the spies captured.  It also checks that each node saw,
// at its response stage, exactly the reference's input packets.
func referenceStages(t *testing.T, p *Pipeline) [][]pred.Packet {
	t.Helper()
	outs := make([][]pred.Packet, len(p.nodes)) // per node, per stage
	for d := 1; d <= p.depth; d++ {
		for ni, n := range p.nodes {
			spy := n.comp.(*stageSpy)
			prim := make(pred.Packet, p.Cfg.FetchWidth)
			if n.primary >= 0 {
				prim = outs[n.primary][d-1]
			}
			out := make(pred.Packet, p.Cfg.FetchWidth)
			if d < n.lat {
				copy(out, prim)
			} else {
				overlayInto(out, spy.resp, prim)
			}
			if d == n.lat {
				for i, ii := range n.inputs {
					if !packetsEqual(spy.in[i], outs[ii][d-1]) {
						t.Errorf("%s saw input %d = %+v at stage %d, reference %+v",
							n.name, i, spy.in[i], d, outs[ii][d-1])
					}
				}
			}
			outs[ni] = append(outs[ni], out)
		}
	}
	return outs
}

// TestStagedPredictMatchesReference drives the random-topology generator of
// TestRandomTopologiesMonotoneRefinement (plus fixed topologies with latency
// gaps) and checks that every node view and every returned stage packet of
// the staged Predict equals the full re-overlay reference, and that no
// component writes to its input packets.
func TestStagedPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	topos := []string{
		"LOOP4 > TAGE3 > BTB2 > BIM2 > UBTB1",
		"TAGE4 > BIM2",
		"TOURNEY4 > [GTAG3 > BIM2, LBIM2]",
		"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1",
		"BTB2 > TAGE3 > BIM2",
	}
	for len(topos) < 40 {
		topos = append(topos, randomTopology(rng))
	}
	for _, src := range topos {
		p, err := New(pred.DefaultConfig(), MustParse(src), Options{GHistBits: 64,
			Wrap: func(c pred.Subcomponent) pred.Subcomponent { return &stageSpy{Subcomponent: c} }})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for q := 0; q < 300; q++ {
			pc := uint64(0x1000 + rng.Intn(64)*16)
			p.Tick(uint64(q))
			e, stages := p.Predict(uint64(q), pc)
			if e == nil {
				t.Fatalf("%q: unexpected stall", src)
			}
			for _, n := range p.nodes {
				if w := n.comp.(*stageSpy).wrote; w != "" {
					t.Fatalf("%q: %s", src, w)
				}
			}
			ref := referenceStages(t, p)
			for ni, n := range p.nodes {
				for d := 1; d <= p.depth; d++ {
					if got := p.views[ni*p.depth+d-1]; !packetsEqual(got, ref[ni][d-1]) {
						t.Fatalf("%q query %d: %s stage %d view %+v, reference %+v",
							src, q, n.name, d, got, ref[ni][d-1])
					}
				}
			}
			for d := range stages {
				if !packetsEqual(stages[d], ref[p.rootIdx][d]) {
					t.Fatalf("%q query %d: returned stage %d %+v, reference %+v",
						src, q, d+1, stages[d], ref[p.rootIdx][d])
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			// The same accept/resolve/commit churn as the refinement test.
			slots := make([]pred.SlotInfo, p.Cfg.FetchWidth)
			slot := rng.Intn(p.Cfg.FetchWidth)
			taken := rng.Intn(2) == 0
			slots[slot] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: taken,
				PC: p.Cfg.SlotPC(pc, slot)}
			cfi := -1
			next := p.Cfg.PacketBase(pc) + uint64(p.Cfg.PktBytes())
			if taken {
				cfi = slot
				next = 0x8000
			}
			p.Accept(uint64(q), e, stages[len(stages)-1], slots, cfi, next)
			if rng.Intn(3) == 0 {
				p.Resolve(uint64(q), e, slot, rng.Intn(2) == 0, 0x8000)
			}
			if rng.Intn(2) == 0 {
				for p.InFlight() > 0 {
					p.Commit(uint64(q), p.Oldest())
				}
			}
		}
	}
}

// TestStagePlan pins the static plan: a node is overlaid at its response
// stage and re-overlaid only where its primary input changes afterwards.
func TestStagePlan(t *testing.T) {
	names := [...]string{opPass: "pass", opRespond: "respond", opRefine: "refine", opHold: "hold"}
	for _, tc := range []struct {
		topo string
		want map[string]string
	}{
		{"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", map[string]string{
			"UBTB1": "respond hold hold",
			"BIM2":  "pass respond hold",
			"BTB2":  "pass respond hold",
			"TAGE3": "pass pass respond",
			"LOOP3": "pass pass respond",
		}},
		// A fast override above a slower input re-applies its pinned
		// overlay when the input responds.
		{"BTB2 > TAGE3 > BIM2", map[string]string{
			"BIM2":  "pass respond hold",
			"TAGE3": "pass pass respond",
			"BTB2":  "pass respond refine",
		}},
	} {
		p := mustPipeline(t, tc.topo, Options{})
		for ni, n := range p.nodes {
			var ops []string
			for d := 0; d < p.depth; d++ {
				ops = append(ops, names[p.plan[ni*p.depth+d]])
			}
			if got := strings.Join(ops, " "); got != tc.want[n.name] {
				t.Errorf("%s: %s plan = %q, want %q", tc.topo, n.name, got, tc.want[n.name])
			}
		}
	}
}

// mutatingComp is a pass-through stub that breaks the event contract by
// rewriting the shared payload's PC in Fire.
type mutatingComp struct {
	pred.NopEvents
	name string
	cfg  pred.Config
}

func (m *mutatingComp) Name() string   { return m.name }
func (m *mutatingComp) Latency() int   { return 2 }
func (m *mutatingComp) MetaWords() int { return 0 }
func (m *mutatingComp) NumInputs() int { return 1 }
func (m *mutatingComp) Predict(*pred.Query) pred.Response {
	return pred.Response{Overlay: make(pred.Packet, m.cfg.FetchWidth)}
}
func (m *mutatingComp) Fire(e *pred.Event)  { e.PC ^= 0x40 }
func (m *mutatingComp) Update(*pred.Event)  {}
func (m *mutatingComp) Reset()              {}
func (m *mutatingComp) Tick(uint64)         {}
func (m *mutatingComp) Budget() sram.Budget { return sram.Budget{} }

func init() {
	components.Register("TSTMUT", func(env components.Env, name string, latency, size int) (pred.Subcomponent, error) {
		return &mutatingComp{name: name, cfg: env.Cfg}, nil
	})
}

// TestParanoidDetectsEventMutation: a component that changes the shared
// event payload's header is reported as an InvariantError naming the
// signal and the component.
func TestParanoidDetectsEventMutation(t *testing.T) {
	p := mustPipeline(t, "BIM2 > TSTMUT2", Options{Paranoid: true})
	p.Tick(1)
	e, stages := p.Predict(1, 0x1000)
	acceptBranch(p, 1, e, stages[len(stages)-1], false)
	if p.ViolationCount() == 0 {
		t.Fatal("event mutation not reported")
	}
	v := p.Violations()[0]
	if v.Op != "Fire" || v.Component != "TSTMUT2" || !strings.Contains(v.Detail, "PC") {
		t.Errorf("violation = %v, want Fire by TSTMUT2 naming PC", v)
	}
	if v.EntrySeq == 0 || v.Cycle != 1 {
		t.Errorf("violation entry#%d cycle %d, want a live entry at cycle 1", v.EntrySeq, v.Cycle)
	}
	if n := p.ViolationCount(); n != 1 {
		t.Errorf("%d violations, want exactly the mutator's one: %v", n, p.Violations())
	}

	// Without the mutator the same traffic is clean.
	p = mustPipeline(t, "BIM2 > UBTB1", Options{Paranoid: true})
	p.Tick(1)
	e, stages = p.Predict(1, 0x1000)
	acceptBranch(p, 1, e, stages[len(stages)-1], false)
	if n := p.ViolationCount(); n != 0 {
		t.Errorf("clean pipeline reported %d violations: %v", n, p.Violations())
	}
}
