package dist

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// TestKeepAliveNoNewConnections: on a 2-replica cluster, once one
// warm-up query has opened a connection to every owner, further queries
// of every protocol reuse them — the owners accept no new connection.
// Every response, control plane included, must be read to its end for
// its connection to return to the pool.
func TestKeepAliveNoNewConnections(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 3, Seed: 3})
	var accepted atomic.Int64
	topo := make(transport.Topology, db.M())
	for li := range topo {
		for ri := 0; ri < 2; ri++ {
			srv, err := transport.NewServer(db, li)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewUnstartedServer(srv.Handler())
			ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					accepted.Add(1)
				}
			}
			ts.Start()
			t.Cleanup(ts.Close)
			topo[li] = append(topo[li], ts.URL)
		}
	}
	hc, err := transport.Dial(context.Background(), transport.DialConfig{Topology: topo, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	ctx := context.Background()
	opts := Options{K: 10, Scoring: score.Sum{}}
	if _, err := TPUTOver(ctx, hc, opts); err != nil {
		t.Fatal(err)
	}
	warm := accepted.Load()
	for _, run := range []struct {
		name string
		run  func(context.Context, transport.Transport, Options) (*Result, error)
	}{{"tput", TPUTOver}, {"dist-ta", TAOver}, {"dist-bpa2", BPA2Over}} {
		if _, err := run.run(ctx, hc, opts); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if n := accepted.Load() - warm; n != 0 {
			t.Fatalf("%s: owners accepted %d new connections after the warm-up query", run.name, n)
		}
	}
}

// requestCounter counts the requests an owner handler serves.
type requestCounter struct {
	inner http.Handler
	n     *atomic.Int64
}

func (c requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.inner.ServeHTTP(w, r)
}

// statsProbe wraps a transport so every Session.Stats call is checked
// against the owners' own tally of the same session, and against the
// owners' request counter: Stats must answer without a round-trip.
type statsProbe struct {
	transport.Transport
	t      *testing.T
	owners []*transport.Owner
	reqs   *atomic.Int64
	calls  *atomic.Int64
}

func (p statsProbe) Open(ctx context.Context, k bestpos.Kind) (transport.Session, error) {
	s, err := p.Transport.Open(ctx, k)
	if err != nil {
		return nil, err
	}
	return statsProbeSession{Session: s, p: p}, nil
}

type statsProbeSession struct {
	transport.Session
	p statsProbe
}

func (s statsProbeSession) Stats(ctx context.Context, owner int) (transport.OwnerStats, error) {
	before := s.p.reqs.Load()
	st, err := s.Session.Stats(ctx, owner)
	if err != nil {
		return st, err
	}
	s.p.calls.Add(1)
	if n := s.p.reqs.Load() - before; n != 0 {
		s.p.t.Errorf("Stats of owner %d sent %d requests, want 0", owner, n)
	}
	want, err := s.p.owners[owner].SessionStats(s.ID())
	if err != nil {
		return st, err
	}
	if st.Accesses != want.Accesses || st.Depth != want.Depth || st.Best != want.Best {
		s.p.t.Errorf("Stats of owner %d = accesses %v depth %d best %d, owner tally %v depth %d best %d",
			owner, st.Accesses, st.Depth, st.Best, want.Accesses, want.Depth, want.Best)
	}
	if st.Index != owner || st.N != want.N || st.M != want.M || st.MinScore != want.MinScore {
		s.p.t.Errorf("Stats of owner %d metadata = %+v, owner %+v", owner, st, want)
	}
	return st, nil
}

// TestHTTPStatsNetworkFree: on a flat topology the HTTP session's Stats
// sends no request, and its accesses, depth and best position equal the
// owner's own tally of the session, for every protocol.
func TestHTTPStatsNetworkFree(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 3, Seed: 5})
	var reqs atomic.Int64
	urls := make([]string, db.M())
	owners := make([]*transport.Owner, db.M())
	for i := range urls {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		owners[i] = srv.Owner()
		ts := httptest.NewServer(requestCounter{inner: srv.Handler(), n: &reqs})
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	hc, err := transport.Dial(context.Background(), transport.DialConfig{Topology: transport.SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	var calls atomic.Int64
	probe := statsProbe{Transport: hc, t: t, owners: owners, reqs: &reqs, calls: &calls}
	for _, p := range overProtocols {
		for _, k := range []int{1, 10} {
			before := calls.Load()
			if _, err := p.run(context.Background(), probe, Options{K: k, Scoring: score.Sum{}}); err != nil {
				t.Fatalf("%s/k=%d: %v", p.name, k, err)
			}
			if n := calls.Load() - before; n != int64(db.M()) {
				t.Errorf("%s/k=%d: %d Stats calls, want one snapshot of %d owners", p.name, k, n, db.M())
			}
		}
	}
}

// TestTPUTNegativeFloorAfterUpdate: TPUT's non-negative precondition is
// checked by the owners on the list they read, so an update that drives
// a mutable list's floor negative makes the next TPUT fail with the
// typed ErrNegativeScores — over loopback and over HTTP alike.
func TestTPUTNegativeFloorAfterUpdate(t *testing.T) {
	mutableDB := func() (*list.Database, []*list.Mutable) {
		src := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 3, Seed: 2})
		muts := make([]*list.Mutable, src.M())
		readers := make([]list.Reader, src.M())
		for i := range muts {
			m, err := list.MutableFromReader(src.List(i))
			if err != nil {
				t.Fatal(err)
			}
			muts[i], readers[i] = m, m
		}
		db, err := list.NewReaderDatabase(readers...)
		if err != nil {
			t.Fatal(err)
		}
		return db, muts
	}
	opts := Options{K: 5, Scoring: score.Sum{}}
	ctx := context.Background()
	check := func(name string, tr transport.Transport, drive func()) {
		if _, err := TPUTOver(ctx, tr, opts); err != nil {
			t.Fatalf("%s: TPUT before the update: %v", name, err)
		}
		drive()
		_, err := TPUTOver(ctx, tr, opts)
		if !errors.Is(err, transport.ErrNegativeScores) {
			t.Errorf("%s: TPUT after the floor went negative: %v, want ErrNegativeScores", name, err)
		}
	}
	// The update: item 7 of list 1 loses more than its whole score.
	const item, owner = 7, 1

	db, muts := mutableDB()
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	check("loopback", lb, func() {
		if _, err := muts[owner].Apply([]list.Update{{Item: item, Delta: -10}}); err != nil {
			t.Fatal(err)
		}
	})

	db, _ = mutableDB()
	hc := httpCluster(t, db)
	check("http", hc, func() {
		if _, err := hc.UpdateAll(ctx, owner, "feed", 1, []transport.ScoreUpdate{{Item: item, Delta: -10}}); err != nil {
			t.Fatal(err)
		}
	})
}
