package pred

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestProviderIntern(t *testing.T) {
	if got := Provider(0).String(); got != "" {
		t.Errorf("zero Provider = %q, want \"\"", got)
	}
	if id, err := ProviderOf(""); err != nil || id != 0 {
		t.Errorf(`ProviderOf("") = %d, %v; want 0, nil`, id, err)
	}
	names := []string{"TAGE3", "BIM2", "UBTB1", "LOOP3(256)", "TAGE3"}
	ids := map[string]Provider{}
	for _, n := range names {
		id, err := ProviderOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			t.Errorf("%q interned as the empty name", n)
		}
		if prev, ok := ids[n]; ok && prev != id {
			t.Errorf("%q interned twice: %d then %d", n, prev, id)
		}
		ids[n] = id
		if got := id.String(); got != n {
			t.Errorf("Provider(%d).String() = %q, want %q", id, got, n)
		}
	}
	if ids["TAGE3"] == ids["BIM2"] {
		t.Error("distinct names share an ID")
	}

	// Concurrent interning and resolution: each goroutine interns its own
	// names (crossing page boundaries) while resolving everyone's.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("concurrent-%d-%d", g, i%100)
				id, err := ProviderOf(name)
				if err != nil {
					t.Error(err)
					return
				}
				if got := id.String(); got != name {
					t.Errorf("Provider(%d).String() = %q, want %q", id, got, name)
					return
				}
				if got := ids["BIM2"].String(); got != "BIM2" {
					t.Errorf("BIM2 resolves to %q under concurrency", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProviderTableFull fills a small table: interning past the ID range is
// an error, never a wrapped ID, and names already interned keep resolving.
func TestProviderTableFull(t *testing.T) {
	tab := newProviderTable(3) // IDs 1 and 2
	a, err := tab.intern("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.intern("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.intern("c"); err == nil || !strings.Contains(err.Error(), `"c"`) {
		t.Fatalf("interning past the limit: err = %v, want an error naming \"c\"", err)
	}
	if id, err := tab.intern("a"); err != nil || id != a {
		t.Errorf("re-interning a known name on a full table = %d, %v; want %d, nil", id, err, a)
	}
	if tab.name(a) != "a" || tab.name(b) != "b" {
		t.Errorf("names = %q, %q; want a, b", tab.name(a), tab.name(b))
	}
	if got := tab.name(7); !strings.Contains(got, "7") {
		t.Errorf("unknown ID resolves to %q", got)
	}
}
