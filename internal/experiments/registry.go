package experiments

import (
	"fmt"
	"strings"

	"cobra/internal/stats"
)

// entry is one renderable paper artifact: a table, figure, or discussion
// experiment, addressed by the id cobra-experiments and cobra-compose use.
type entry struct {
	id string
	// simulated marks entries whose bytes come from simulation grids (and
	// therefore scale with Config); static entries render from configuration
	// alone.
	simulated bool
	render    func(Config) (string, error)
}

// static adapts a configuration-only renderer.
func static(f func() string) func(Config) (string, error) {
	return func(Config) (string, error) { return f(), nil }
}

// table adapts a simulated table renderer.
func table(f func(Config) (*stats.Table, error)) func(Config) (string, error) {
	return func(c Config) (string, error) {
		t, err := f(c)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}
}

// registry lists every experiment in cobra-experiments' canonical order.
// One table: the tool's -exp switch, the fleet executor's `experiment:`
// services, and the documentation of valid ids all read from here.
var registry = []entry{
	{"table1", false, static(func() string { return TableI().String() })},
	{"table2", false, static(func() string { return TableII().String() })},
	{"table3", false, static(func() string { return TableIII().String() })},
	{"fig8", false, static(Fig8)},
	{"fig9", false, static(Fig9)},
	{"fig10", true, table(func(c Config) (*stats.Table, error) { _, t, err := Fig10(c); return t, err })},
	{"d1", true, table(SerializedFetch)},
	{"d2", true, table(TageLatency)},
	{"d3", true, table(HistoryRepair)},
	{"d4", true, table(SFB)},
	{"tracegap", true, table(TraceGap)},
	{"energy", true, table(Energy)},
	{"h2p", true, table(H2P)},
	{"shootout", true, table(Shootout)},
	{"ablation-loop", true, table(AblationLoop)},
	{"ablation-ubtb", true, table(AblationUBTB)},
	{"ablation-meta", false, static(func() string { return AblationMetadata().String() })},
	{"ablation-width", true, table(AblationWidth)},
}

// Ids lists every experiment id in canonical (paper) order.
func Ids() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	for _, e := range registry {
		if e.id == id {
			return true
		}
	}
	return false
}

// Simulated reports whether id's bytes depend on simulation (and therefore
// on Config budgets); static tables render from configuration alone.
// Unknown ids report false.
func Simulated(id string) bool {
	for _, e := range registry {
		if e.id == id {
			return e.simulated
		}
	}
	return false
}

// Render produces the named experiment's output — the exact bytes
// cobra-experiments prints for it (without the trailing newline Println
// adds).  Simulation-backed experiments run under cfg, including its
// Backend when set; a failed simulation (timeout, invariant violation,
// backend error) fails the render with an error naming the experiment.
func Render(id string, cfg Config) (string, error) {
	for _, e := range registry {
		if e.id == id {
			out, err := e.render(cfg)
			if err != nil {
				return "", fmt.Errorf("%s: %w", id, err)
			}
			return out, nil
		}
	}
	return "", fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(Ids(), " "))
}
