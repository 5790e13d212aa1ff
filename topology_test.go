package topk

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"topk/internal/dist"
	"topk/internal/transport"
)

// TestParseTopology covers the CLI replica syntax: lists comma-
// separated, replicas |-separated.
func TestParseTopology(t *testing.T) {
	got, err := ParseTopology("host:a|host:b, host:c")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"host:a", "host:b"}, {"host:c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseTopology = %v, want %v", got, want)
	}
	// The flat syntax stays valid: one replica per list.
	got, err = ParseTopology("host:a,host:c")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != "host:a" {
		t.Errorf("flat ParseTopology = %v", got)
	}
	for _, bad := range []string{"", "  ", "a||b", "a,", "|a"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

// TestParseRoutingPolicyPublic: the public policy names round-trip.
func TestParseRoutingPolicyPublic(t *testing.T) {
	for _, p := range RoutingPolicies() {
		got, err := ParseRoutingPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseRoutingPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseRoutingPolicy("zzz"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// startReplicatedCluster serves list 0 of db from two replicas (list 1+
// from one) and dials the topology under the given policy.
func startReplicatedCluster(t *testing.T, db *Database, policy RoutingPolicy) *Cluster {
	t.Helper()
	topo := make([][]string, db.M())
	for i := 0; i < db.M(); i++ {
		reps := 1
		if i == 0 {
			reps = 2
		}
		for r := 0; r < reps; r++ {
			srv, err := transport.NewServer(db.db, i)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			topo[i] = append(topo[i], ts.URL)
		}
	}
	c, err := DialClusterConfig(context.Background(), ClusterConfig{Topology: topo, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDialClusterConfigReplicated: the declarative dial against a
// mixed-width topology answers every protocol bit-identically to the
// in-process run, and exposes the replica health snapshot.
func TestDialClusterConfigReplicated(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 250, M: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := startReplicatedCluster(t, db, RouteRoundRobin)
	for _, p := range Protocols() {
		want, err := db.ExecDistributed(context.Background(), Query{K: 7}, p)
		if err != nil {
			t.Fatalf("%v in-process: %v", p, err)
		}
		got, err := c.Exec(context.Background(), Query{K: 7}, p)
		if err != nil {
			t.Fatalf("%v replicated cluster: %v", p, err)
		}
		for i := range want.Items {
			if got.Items[i].Item != want.Items[i].Item || got.Items[i].Score != want.Items[i].Score {
				t.Errorf("%v answer %d: %+v vs %+v", p, i, got.Items[i], want.Items[i])
			}
		}
		if got.Stats.Net.Messages != want.Stats.Net.Messages || got.Stats.Net.Payload != want.Stats.Net.Payload ||
			got.Stats.Net.Rounds != want.Stats.Net.Rounds || got.Stats.Net.TotalAccesses != want.Stats.Net.TotalAccesses ||
			!reflect.DeepEqual(got.Stats.Net.PerOwner, want.Stats.Net.PerOwner) {
			t.Errorf("%v stats diverge: %+v vs %+v", p, got.Stats, want.Stats)
		}
	}
	h := c.Health()
	if len(h) != 4 { // 2 replicas of list 0 + 1 each of lists 1, 2
		t.Fatalf("Health reported %d replicas, want 4", len(h))
	}
	for _, rh := range h {
		if !rh.Healthy {
			t.Errorf("replica %d/%d unhealthy after clean runs", rh.List, rh.Replica)
		}
		if rh.Latency <= 0 {
			t.Errorf("replica %d/%d has no EWMA latency", rh.List, rh.Replica)
		}
	}
}

// TestDialClusterConfigValidation: malformed configs fail the dial.
func TestDialClusterConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := DialClusterConfig(ctx, ClusterConfig{}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := DialClusterConfig(ctx, ClusterConfig{Topology: [][]string{{"127.0.0.1:1"}}}); err == nil {
		t.Error("unreachable single-replica list accepted")
	}
}

// TestDistStatsPerOwnerCopied: the adapter must hand out its own
// PerOwner slice, not alias the runner's live accounting.
func TestDistStatsPerOwnerCopied(t *testing.T) {
	res := &dist.Result{Net: dist.Net{Messages: 4, PerOwner: []int64{2, 2}}}
	st := distStatsOf(res)
	st.Net.PerOwner[0] = 99
	if res.Net.PerOwner[0] != 2 {
		t.Error("DistStats.Net.PerOwner aliases the internal accounting slice")
	}
}

// TestProtocolRoundTrip: every Protocol's String parses back to itself,
// in the exact form, with the dist- prefix added or stripped, and under
// whitespace/case noise.
func TestProtocolRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		name := p.String()
		variants := []string{
			name,
			strings.ToUpper(name),
			"  " + name + "\t",
			strings.TrimPrefix(name, "dist-"), // bare form
			"dist-" + strings.TrimPrefix(name, "dist-"), // prefixed form (also for tput)
			"DIST-" + strings.ToUpper(strings.TrimPrefix(name, "dist-")),
		}
		for _, v := range variants {
			got, err := ParseProtocol(v)
			if err != nil {
				t.Errorf("ParseProtocol(%q): %v", v, err)
				continue
			}
			if got != p {
				t.Errorf("ParseProtocol(%q) = %v, want %v", v, got, p)
			}
			if got.String() != name {
				t.Errorf("round-trip drift: %q -> %v -> %q", v, got, got.String())
			}
		}
	}
	for _, bad := range []string{"", "dist-", "zzz", "dist-zzz"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", bad)
		}
	}
}

// TestClusterOwnerFailedErrorPublic: the transport's typed mid-query
// failure surfaces through the public API as *topk.OwnerFailedError.
func TestClusterOwnerFailedErrorPublic(t *testing.T) {
	inner := &transport.OwnerFailedError{List: 1, Replica: 0, URL: "http://x", Err: errors.New("boom")}
	err := liftOwnerFailure(distWrap(inner))
	var ofe *OwnerFailedError
	if !errors.As(err, &ofe) {
		t.Fatalf("liftOwnerFailure returned %T", err)
	}
	if ofe.List != 1 || ofe.Replica != 0 || ofe.URL != "http://x" {
		t.Errorf("lifted error = %+v", ofe)
	}
	if !strings.Contains(ofe.Error(), "owner 1") || !strings.Contains(ofe.Error(), "replica 0") {
		t.Errorf("error text = %q", ofe.Error())
	}
	// Non-replica errors pass through untouched.
	plain := errors.New("plain")
	if got := liftOwnerFailure(plain); got != plain {
		t.Errorf("plain error rewritten to %v", got)
	}
}

// distWrap simulates the dist runner's wrapping between the transport
// failure and the public boundary.
func distWrap(err error) error {
	return &wrapped{err}
}

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "dist: probe exchange with owner 1: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }
