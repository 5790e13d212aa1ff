package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"topk"
	"topk/internal/gen"
	"topk/internal/obs"
	"topk/internal/transport"
)

// clusterBackedServer serves a generated database from httptest owners
// and returns an API server dialed against them.
func clusterBackedServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 200, M: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	inner := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 17})
	urls := make([]string, db.M())
	for i := range urls {
		osrv, err := transport.NewServer(inner, i)
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(osrv.Handler())
		t.Cleanup(ots.Close)
		urls[i] = ots.URL
	}
	cluster, err := topk.DialClusterConfig(context.Background(), topk.ClusterConfig{Topology: transport.SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	srv, err := NewWithCluster(db, cluster)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestDistTraceParam: /v1/dist?trace=1 returns the per-exchange span
// trace; without the parameter the trace block is absent; a malformed
// value is a 400.
func TestDistTraceParam(t *testing.T) {
	ts := testServer(t)

	var traced distBody
	getJSON(t, ts.URL+"/v1/dist?k=2&trace=1", http.StatusOK, &traced)
	if len(traced.Trace) == 0 {
		t.Fatal("trace=1 returned no spans")
	}
	if int64(len(traced.Trace)) != traced.Net.Exchanges {
		t.Errorf("trace has %d spans, want exchanges = %d", len(traced.Trace), traced.Net.Exchanges)
	}
	for _, sp := range traced.Trace {
		if sp.Kind == "" || sp.URL == "" {
			t.Errorf("malformed span %+v", sp)
		}
	}

	var plain distBody
	getJSON(t, ts.URL+"/v1/dist?k=2", http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Errorf("untraced response carries %d spans", len(plain.Trace))
	}
	if !reflect.DeepEqual(plain.Net, traced.Net) {
		t.Errorf("tracing perturbed the accounting: %+v vs %+v", traced.Net, plain.Net)
	}

	resp, err := http.Get(ts.URL + "/v1/dist?k=2&trace=zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trace=zzz status = %d, want 400", resp.StatusCode)
	}
}

// TestDistTraceOverCluster: the traced cluster-backed /v1/dist names
// real replica URLs and wire bytes in its spans.
func TestDistTraceOverCluster(t *testing.T) {
	ts := clusterBackedServer(t)
	var body distBody
	getJSON(t, ts.URL+"/v1/dist?k=3&protocol=tput&trace=1", http.StatusOK, &body)
	if len(body.Trace) == 0 {
		t.Fatal("cluster trace is empty")
	}
	for _, sp := range body.Trace {
		if !strings.HasPrefix(sp.URL, "http") || sp.Replica < 0 {
			t.Errorf("cluster span missing replica/url: %+v", sp)
		}
		if sp.ReqBytes <= 0 || sp.RespBytes <= 0 {
			t.Errorf("cluster span missing wire bytes: %+v", sp)
		}
	}
}

// TestClusterHealthEndpoint: /v1/health reports every replica of a
// cluster-backed server and 404s on a simulation-only one.
func TestClusterHealthEndpoint(t *testing.T) {
	plain := testServer(t)
	resp, err := http.Get(plain.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/health without a cluster = %d, want 404", resp.StatusCode)
	}

	ts := clusterBackedServer(t)
	var body struct {
		Replicas []healthBody `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/health", http.StatusOK, &body)
	if len(body.Replicas) != 3 {
		t.Fatalf("health reports %d replicas, want 3", len(body.Replicas))
	}
	for _, h := range body.Replicas {
		if !h.Healthy || !strings.HasPrefix(h.URL, "http") {
			t.Errorf("replica %+v", h)
		}
	}
}

// TestServeMetricsEndpoint: the API server exposes the process-wide
// registry as valid Prometheus text exposition.
func TestServeMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Move at least one family so the scrape is non-empty even on a
	// fresh process.
	var ignored distBody
	getJSON(t, ts.URL+"/v1/dist?k=2", http.StatusOK, &ignored)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition is malformed: %v\n%s", err, body)
	}
}
