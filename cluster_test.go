package topk

import (
	"context"
	"net/http/httptest"
	"testing"

	"topk/internal/transport"
)

// startCluster serves every list of a generated database over httptest
// owners and dials them.
func startCluster(t *testing.T, db *Database) *Cluster {
	t.Helper()
	urls := make([]string, db.M())
	for i := range urls {
		srv, err := transport.NewServer(db.db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	c, err := DialClusterConfig(context.Background(), ClusterConfig{Topology: transport.SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterMatchesInProcess: the public cluster face must return the
// same answers and the same accounting as the in-process simulation for
// every protocol — only Elapsed may differ.
func TestClusterMatchesInProcess(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 250, M: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, db)
	if c.N() != db.N() || c.M() != db.M() {
		t.Fatalf("cluster dims %d/%d", c.N(), c.M())
	}
	for _, p := range Protocols() {
		want, err := db.ExecDistributed(context.Background(), Query{K: 7}, p)
		if err != nil {
			t.Fatalf("%v in-process: %v", p, err)
		}
		got, err := c.Exec(context.Background(), Query{K: 7}, p)
		if err != nil {
			t.Fatalf("%v cluster: %v", p, err)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("%v: %d answers, want %d", p, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if got.Items[i].Item != want.Items[i].Item || got.Items[i].Score != want.Items[i].Score {
				t.Errorf("%v answer %d: %+v vs %+v", p, i, got.Items[i], want.Items[i])
			}
		}
		if got.Stats.Net.Messages != want.Stats.Net.Messages || got.Stats.Net.Payload != want.Stats.Net.Payload ||
			got.Stats.Net.Rounds != want.Stats.Net.Rounds || got.Stats.Net.TotalAccesses != want.Stats.Net.TotalAccesses {
			t.Errorf("%v stats diverge: %+v vs %+v", p, got.Stats, want.Stats)
		}
		if got.Stats.Net.Elapsed <= 0 {
			t.Errorf("%v: cluster run reported no elapsed time", p)
		}
	}
}

// TestClusterValidation: query failures are reported, not mis-answered.
// Dial failures are TestDialClusterConfigValidation's.
func TestClusterValidation(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 50, M: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, db)
	if _, err := c.Exec(context.Background(), Query{K: 0}, DistBPA2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := c.Exec(context.Background(), Query{K: 99}, DistBPA2); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := c.Exec(context.Background(), Query{K: 1}, Protocol(42)); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := c.Exec(context.Background(), Query{K: 1, Scoring: Min()}, TPUT); err == nil {
		t.Error("TPUT with Min accepted")
	}
}

// TestParseProtocol covers the protocol name table.
func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]Protocol{
		"bpa2": DistBPA2, "dist-bpa2": DistBPA2, "BPA2": DistBPA2,
		"bpa": DistBPA, "ta": DistTA, "dist-ta": DistTA,
		"tput": TPUT, "tput-a": TPUTA, "tputa": TPUTA,
	} {
		got, err := ParseProtocol(name)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseProtocol("zzz"); err == nil {
		t.Error("unknown protocol name accepted")
	}
	if TPUTA.String() != "tput-a" {
		t.Errorf("TPUTA.String() = %q", TPUTA.String())
	}
}
