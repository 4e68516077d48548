package pred

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Provider is an interned sub-component instance name: the attribution a
// Pred carries for its direction and target field groups.  The zero value
// is the empty name ("no provider").  Interning keeps Pred free of
// pointers, so copying and overlaying packets is a plain memory move with
// no GC write barriers; the name is resolved only where a report needs it.
type Provider uint16

const (
	provPageBits = 8
	provPageSize = 1 << provPageBits
	// maxProviders bounds the table: every uint16 value is an ID, with 0
	// reserved for the empty name.
	maxProviders = 1 << 16
)

// providerTable interns names to dense IDs.  Names live in fixed-size pages
// that never move once published, and count is stored after a name is
// written, so String reads without a lock: an ID below the loaded count
// names a fully written entry.
type providerTable struct {
	mu    sync.Mutex
	ids   map[string]Provider
	limit uint32 // exclusive upper bound on IDs handed out
	count atomic.Uint32
	pages [maxProviders / provPageSize]atomic.Pointer[[provPageSize]string]
}

func newProviderTable(limit uint32) *providerTable {
	t := &providerTable{ids: map[string]Provider{"": 0}, limit: limit}
	t.pages[0].Store(new([provPageSize]string))
	t.count.Store(1)
	return t
}

var providers = newProviderTable(maxProviders)

func (t *providerTable) intern(name string) (Provider, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id, nil
	}
	n := t.count.Load()
	if n >= t.limit {
		return 0, fmt.Errorf("pred: cannot intern provider %q: all %d provider IDs are in use", name, t.limit-1)
	}
	page := t.pages[n>>provPageBits].Load()
	if page == nil {
		page = new([provPageSize]string)
		t.pages[n>>provPageBits].Store(page)
	}
	page[n&(provPageSize-1)] = name
	t.count.Store(n + 1)
	id := Provider(n)
	t.ids[name] = id
	return id, nil
}

func (t *providerTable) name(p Provider) string {
	if uint32(p) >= t.count.Load() {
		return fmt.Sprintf("provider#%d", uint16(p))
	}
	return t.pages[p>>provPageBits].Load()[p&(provPageSize-1)]
}

// ProviderOf interns name and returns its ID; the same name always yields
// the same ID for the life of the process, and "" yields 0.  It fails, and
// never wraps, once every ID is in use.
func ProviderOf(name string) (Provider, error) { return providers.intern(name) }

// MustProvider is ProviderOf for component constructors, which report bad
// parameters by panicking (components.Build recovers the panic into a
// construction error).
func MustProvider(name string) Provider {
	id, err := ProviderOf(name)
	if err != nil {
		panic(err)
	}
	return id
}

// String returns the interned name ("" for the zero Provider).  It takes no
// lock.
func (p Provider) String() string {
	if p == 0 {
		return ""
	}
	return providers.name(p)
}
