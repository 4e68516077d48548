package experiments

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/serve"
)

// TestRemoteMatchesLocal: a grid executed through a remote Backend — specs
// submitted to an in-process cobra-serve daemon — renders the exact same
// table as the in-process runner, because each grid point carries the same
// derived seed either way.  This is the tentpole equivalence behind
// `cobra-experiments -server`.
func TestRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation grid twice")
	}
	srv, err := serve.New(serve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	be, err := backend.NewRemote(client.Config{BaseURL: ts.URL, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	local := Config{Insts: 30_000, Seed: 42, Parallelism: 4}
	remote := local
	remote.Backend = be
	// The explicit backend.Local must match the nil-Backend default too:
	// the Backend seam itself introduces no byte-level drift.
	viaLocal := local
	viaLocal.Backend = &backend.Local{}
	// ablation-width runs 8x2B cores on 2-byte images: the fetch geometry
	// travels in the spec's core, so the daemon builds the same programs.
	for _, id := range []string{"d2", "ablation-width"} {
		want, err := Render(id, local)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range map[string]Config{"remote": remote, "backend.Local": viaLocal} {
			got, err := Render(id, cfg)
			if err != nil {
				t.Fatalf("%s via %s: %v", id, name, err)
			}
			if got != want {
				t.Errorf("%s via %s differs from local:\n--- local ---\n%s--- %s ---\n%s", id, name, want, name, got)
			}
		}
	}
}
