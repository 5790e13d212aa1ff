package transport

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/obs"
)

// TestErrorRepliesKeepConnection: a non-200 reply — a 404 for a session
// the owner does not hold, a 429 shed — is read to its end like any
// other, so its connection returns to the pool: repeated error replies
// cost no new connection. The default client's dial counter
// (topk_client_conns_dialed_total) agrees with the owner's count of
// accepted connections.
func TestErrorRepliesKeepConnection(t *testing.T) {
	prev := obs.Default.Enabled()
	obs.Default.SetEnabled(true)
	t.Cleanup(func() { obs.Default.SetEnabled(prev) })
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 40, M: 1, Seed: 3})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	ctx := context.Background()
	dialedBefore := mClientConnsDialed.Value()
	hc, err := Dial(ctx, DialConfig{Topology: SingleTopology([]string{ts.URL}), HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	// One held session fills the owner's session limit, so every further
	// open is shed.
	srv.Owner().SetMaxSessions(1)
	if err := srv.Owner().Open("held", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	url := hc.lists[0][0].url
	base := accepted.Load()
	for i := 0; i < 3; i++ {
		status, err := hc.attempt(ctx, http.MethodPost, url+"/session/sync", []byte(`{"sid":"never-opened"}`), ContentTypeJSON, nil)
		if status != http.StatusNotFound {
			t.Fatalf("sync of an unknown session: status %d (%v), want 404", status, err)
		}
		status, err = hc.attempt(ctx, http.MethodPost, url+"/session/open", []byte(`{"sid":"over-limit"}`), ContentTypeJSON, nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("open beyond the session limit: status %d (%v), want 429", status, err)
		}
	}
	if n := accepted.Load() - base; n != 0 {
		t.Errorf("error replies cost %d new connections, want 0", n)
	}
	if dialed := mClientConnsDialed.Value() - dialedBefore; dialed != accepted.Load() {
		t.Errorf("client counted %d dialed connections, owner accepted %d", dialed, accepted.Load())
	}
}
