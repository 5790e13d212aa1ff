package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
)

func testDB(t *testing.T) *list.Database {
	t.Helper()
	return gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 3, Seed: 5})
}

// open starts a session on a transport or fails the test.
func open(t *testing.T, tr Transport) Session {
	t.Helper()
	s, err := tr.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMessageScalars pins the payload accounting every backend charges:
// it must match the hand-counted scalar tallies of the simulation.
func TestMessageScalars(t *testing.T) {
	entries := []list.Entry{{Item: 1, Score: 0.5}, {Item: 2, Score: 0.25}}
	cases := []struct {
		req   int
		resp  int
		reqV  Request
		respV Response
	}{
		{0, 2, SortedReq{Pos: 1}, SortedResp{Entry: entries[0]}},
		{0, 1, LookupReq{Item: 1}, LookupResp{Score: 0.5}},
		{0, 2, LookupReq{Item: 1, WantPos: true}, LookupResp{Score: 0.5, Pos: 3, HasPos: true}},
		{0, 3, ProbeReq{}, ProbeResp{Entry: entries[0], BestScore: 0.5}},
		{0, 1, ProbeReq{}, ProbeResp{BestScore: 0.5, Exhausted: true, Empty: true}},
		{0, 2, MarkReq{Item: 1}, MarkResp{Score: 0.5, BestScore: 0.5}},
		{0, 4, TopKReq{K: 2}, TopKResp{Entries: entries}},
		{0, 4, AboveReq{T: 0.1}, AboveResp{Entries: entries}},
		{3, 3, FetchReq{Items: []list.ItemID{1, 2, 3}}, FetchResp{Scores: []float64{1, 2, 3}}},
	}
	for _, c := range cases {
		if got := c.reqV.RequestScalars(); got != c.req {
			t.Errorf("%T request scalars = %d, want %d", c.reqV, got, c.req)
		}
		if got := c.respV.ResponseScalars(); got != c.resp {
			t.Errorf("%T response scalars = %d, want %d", c.respV, got, c.resp)
		}
	}
}

// TestNewSessionID: IDs must be unique even when minted concurrently.
func TestNewSessionID(t *testing.T) {
	const n = 1000
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); ids <- NewSessionID() }()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool, n)
	for id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty session ID %q", id)
		}
		seen[id] = true
	}
}

// TestOwnerHandlers drives the owner-side state machine directly inside
// one session.
func TestOwnerHandlers(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "q1"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	l := db.List(1)

	resp, err := o.HandleContext(context.Background(), sid, SortedReq{Pos: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(SortedResp).Entry; got != l.At(1) {
		t.Errorf("sorted(1) = %+v, want %+v", got, l.At(1))
	}

	item := l.At(5).Item
	resp, err = o.HandleContext(context.Background(), sid, LookupReq{Item: item, WantPos: true})
	if err != nil {
		t.Fatal(err)
	}
	if lr := resp.(LookupResp); lr.Pos != 5 || lr.Score != l.At(5).Score || !lr.HasPos {
		t.Errorf("lookup = %+v", lr)
	}

	// Probe reads the first unseen position: sorted accesses don't mark —
	// only probe and mark do — so the first probe must read position 1.
	resp, err = o.HandleContext(context.Background(), sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != l.At(1) || pr.BestScore != l.At(1).Score || pr.Empty {
		t.Errorf("probe = %+v", pr)
	}

	// Marking position 3 leaves 2 unseen: best stays 1, next probe is 2.
	resp, err = o.HandleContext(context.Background(), sid, MarkReq{Item: l.At(3).Item})
	if err != nil {
		t.Fatal(err)
	}
	if mr := resp.(MarkResp); mr.BestScore != l.At(1).Score || mr.Score != l.At(3).Score {
		t.Errorf("mark = %+v", mr)
	}
	resp, err = o.HandleContext(context.Background(), sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != l.At(2) || pr.BestScore != l.At(3).Score {
		t.Errorf("probe after mark = %+v", pr)
	}

	st, err := o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != 1 || st.N != db.N() || st.M != db.M() {
		t.Errorf("stats = %+v", st)
	}
	if st.Accesses.Sorted != 1 || st.Accesses.Random != 2 || st.Accesses.Direct != 2 {
		t.Errorf("access tally = %v", st.Accesses)
	}
	if st.Best != 3 {
		t.Errorf("best = %d, want 3", st.Best)
	}
	if st.MinScore != l.At(db.N()).Score {
		t.Errorf("min score = %v", st.MinScore)
	}

	// Re-opening the same session ID replaces its state (retried opens
	// are idempotent).
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	st, err = o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Total() != 0 || st.Best != 0 || st.Depth != 0 {
		t.Errorf("stats after re-open = %+v", st)
	}

	// Malformed requests error instead of panicking.
	for _, req := range []Request{
		SortedReq{Pos: 0}, SortedReq{Pos: db.N() + 1},
		LookupReq{Item: -1}, LookupReq{Item: list.ItemID(db.N())},
		MarkReq{Item: -2}, TopKReq{K: 0},
		FetchReq{Items: []list.ItemID{0, list.ItemID(db.N())}},
	} {
		if _, err := o.HandleContext(context.Background(), sid, req); err == nil {
			t.Errorf("%#v accepted", req)
		}
	}

	// Unknown and closed sessions are rejected with ErrUnknownSession.
	if _, err := o.HandleContext(context.Background(), "nope", ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	o.CloseSession(sid)
	if _, err := o.HandleContext(context.Background(), sid, ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("closed session: %v", err)
	}
	if o.Sessions() != 0 {
		t.Errorf("%d sessions left open", o.Sessions())
	}
	if err := o.Open("", bestpos.BitArrayKind); err == nil {
		t.Error("empty session ID accepted")
	}
}

// TestOwnerSessionIsolation: two sessions on one owner must not share
// protocol state — the redesign's whole point.
func TestOwnerSessionIsolation(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"a", "b"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	l := db.List(0)
	// Session a probes twice; session b must still see position 1 first.
	for i := 1; i <= 2; i++ {
		resp, err := o.HandleContext(context.Background(), "a", ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(ProbeResp).Entry; got != l.At(i) {
			t.Fatalf("a probe %d = %+v", i, got)
		}
	}
	resp, err := o.HandleContext(context.Background(), "b", ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != l.At(1) {
		t.Errorf("b's first probe = %+v, want position 1: sessions share state", got)
	}
	sa, _ := o.SessionStats("a")
	sb, _ := o.SessionStats("b")
	if sa.Accesses.Direct != 2 || sb.Accesses.Direct != 1 {
		t.Errorf("access tallies bleed across sessions: a=%v b=%v", sa.Accesses, sb.Accesses)
	}
}

// TestOwnerProbeExhaustion: probing past the end answers Empty with the
// piggyback instead of failing, and TopK/Above maintain the scan depth.
func TestOwnerProbeExhaustion(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 3, M: 2, Seed: 1})
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "s"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := o.HandleContext(context.Background(), sid, ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		pr := resp.(ProbeResp)
		if pr.Empty {
			t.Fatalf("probe %d empty", i)
		}
		if i == 2 && !pr.Exhausted {
			t.Error("last probe not exhausted")
		}
	}
	resp, err := o.HandleContext(context.Background(), sid, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); !pr.Empty || !pr.Exhausted || pr.ResponseScalars() != 1 {
		t.Errorf("over-probe = %+v", pr)
	}
}

// TestLoopbackBasics: dimensions, call order, owner validation, session
// lifecycle.
func TestLoopbackBasics(t *testing.T) {
	db := testDB(t)
	lb, err := NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	if lb.M() != db.M() || lb.N() != db.N() {
		t.Fatalf("dims %d/%d", lb.M(), lb.N())
	}
	s := open(t, lb)
	ctx := context.Background()
	if _, err := s.Do(ctx, 5, ProbeReq{}); err == nil {
		t.Error("bad owner accepted")
	}
	if _, err := s.Stats(ctx, -1); err == nil {
		t.Error("bad stats owner accepted")
	}
	resps, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 0, Req: SortedReq{Pos: 2}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resps[1].(SortedResp).Entry; got != db.List(0).At(2) {
		t.Errorf("call order broken: %+v", got)
	}
	if s.Elapsed() != 0 {
		t.Errorf("loopback elapsed %v", s.Elapsed())
	}
	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Sorted != 2 {
		t.Errorf("owner 0 tally %v", st.Accesses)
	}
	// A canceled ctx aborts before the owner is touched.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Do(canceled, 0, ProbeReq{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Do: %v", err)
	}
	// Closing the session releases the owner state; its ID stops working.
	sid := s.ID()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.owners[0].HandleContext(context.Background(), sid, ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("closed loopback session still handled: %v", err)
	}
}

// TestConcurrentClockMaxNotSum: the per-session virtual clock is the
// concurrent backend's contract — a batch costs its slowest owner's
// serialized exchanges, a lone exchange costs one round-trip, and
// per-owner order within a batch is submission order.
func TestConcurrentClockMaxNotSum(t *testing.T) {
	db := testDB(t)
	rtt := 10 * time.Millisecond
	cc, err := NewConcurrent(db, ConstantLatency(rtt))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	s := open(t, cc)
	ctx := context.Background()

	// One exchange per owner: one RTT, not three.
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 1, Req: SortedReq{Pos: 1}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != rtt {
		t.Errorf("balanced batch cost %v, want %v", got, rtt)
	}

	// Skewed batch: owner 0 serves three exchanges, the others one.
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 2}},
		{Owner: 0, Req: SortedReq{Pos: 3}},
		{Owner: 0, Req: SortedReq{Pos: 4}},
		{Owner: 1, Req: SortedReq{Pos: 2}},
		{Owner: 2, Req: SortedReq{Pos: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != rtt+3*rtt {
		t.Errorf("skewed batch: clock %v, want %v", got, rtt+3*rtt)
	}

	// A lone exchange adds one RTT.
	if _, err := s.Do(ctx, 1, SortedReq{Pos: 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.Elapsed(); got != 5*rtt {
		t.Errorf("after Do: clock %v, want %v", got, 5*rtt)
	}

	// A second session starts its own clock at zero.
	s2 := open(t, cc)
	if got := s2.Elapsed(); got != 0 {
		t.Errorf("fresh session clock %v", got)
	}
}

// TestConcurrentPerOwnerOrder: a batch's calls to one owner must reach
// it in submission order — BPA2's owner-side tracker depends on it.
func TestConcurrentPerOwnerOrder(t *testing.T) {
	db := testDB(t)
	cc, err := NewConcurrent(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	s := open(t, cc)
	// Probes to the same owner must come back in position order 1,2,3...
	calls := make([]Call, 6)
	for i := range calls {
		calls[i] = Call{Owner: 1, Req: ProbeReq{}}
	}
	resps, err := s.DoAll(context.Background(), calls)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if got := resp.(ProbeResp).Entry; got != db.List(1).At(i+1) {
			t.Fatalf("probe %d returned %+v, want position %d", i, got, i+1)
		}
	}
}

// TestConcurrentParallelism: a balanced batch must actually overlap the
// owners — with one goroutine per owner, three slow handlers finish in
// roughly one handler's real time. Guarded generously for CI noise.
func TestConcurrentParallelism(t *testing.T) {
	db := testDB(t)
	cc, err := NewConcurrent(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var mu sync.Mutex
	inFlight, peak := 0, 0
	slow := func(int, Request, Response) time.Duration {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return 0
	}
	cc.lat = slow
	s := open(t, cc)
	if _, err := s.DoAll(context.Background(), []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 1, Req: SortedReq{Pos: 1}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Errorf("peak concurrency %d: owners did not overlap", peak)
	}
}

// TestConcurrentSessionsIndependent: two sessions sharing the owner
// goroutines must see independent protocol state.
func TestConcurrentSessionsIndependent(t *testing.T) {
	db := testDB(t)
	cc, err := NewConcurrent(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	a, b := open(t, cc), open(t, cc)
	ctx := context.Background()
	if _, err := a.Do(ctx, 0, ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != db.List(0).At(1) {
		t.Errorf("session b's first probe = %+v, want position 1", got)
	}
}

// TestConcurrentCancelNoLeak: canceling mid-batch returns ctx.Err() and
// leaves no goroutine behind — feeders bail out, in-flight replies land
// in buffered channels, and the owner goroutines keep serving other
// sessions.
func TestConcurrentCancelNoLeak(t *testing.T) {
	db := testDB(t)
	cc, err := NewConcurrent(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s := open(t, cc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DoAll(ctx, []Call{
		{Owner: 0, Req: SortedReq{Pos: 1}},
		{Owner: 1, Req: SortedReq{Pos: 1}},
		{Owner: 2, Req: SortedReq{Pos: 1}},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled DoAll: %v", err)
	}
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Do: %v", err)
	}
	// The backend must stay usable for live contexts.
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("Do after canceled batch: %v", err)
	}
	s.Close()
	waitGoroutines(t, base)
	cc.Close()
}

// waitGoroutines waits for the goroutine count to settle back to at most
// base, tolerating scheduler lag.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, want <= %d", runtime.NumGoroutine(), base)
}

// TestConcurrentClosed: sessions and exchanges after Close fail cleanly.
func TestConcurrentClosed(t *testing.T) {
	cc, err := NewConcurrent(testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, cc)
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	ctx := context.Background()
	if _, err := s.Do(ctx, 0, ProbeReq{}); err == nil {
		t.Error("Do after Close succeeded")
	}
	if _, err := s.DoAll(ctx, []Call{{Owner: 0, Req: ProbeReq{}}}); err == nil {
		t.Error("DoAll after Close succeeded")
	}
	if _, err := cc.Open(ctx, bestpos.BitArrayKind); err == nil {
		t.Error("Open after Close succeeded")
	}
}

// TestLatencyModels exercises the stock models.
func TestLatencyModels(t *testing.T) {
	req, resp := FetchReq{Items: []list.ItemID{1, 2}}, FetchResp{Scores: []float64{1, 2}}
	if got := ConstantLatency(time.Second)(1, req, resp); got != time.Second {
		t.Errorf("constant = %v", got)
	}
	po := PerOwnerLatency([]time.Duration{time.Millisecond, time.Minute})
	if got := po(1, req, resp); got != time.Minute {
		t.Errorf("per-owner = %v", got)
	}
	// 2 request scalars + 2 response scalars at 1ms each over a 10ms link.
	if got := LinkLatency(10*time.Millisecond, time.Millisecond)(0, req, resp); got != 14*time.Millisecond {
		t.Errorf("link = %v", got)
	}
}

// startHTTPOwners serves every list of db over httptest.
func startHTTPOwners(t *testing.T, db *list.Database) ([]string, []*Server) {
	t.Helper()
	urls := make([]string, db.M())
	servers := make([]*Server, db.M())
	for i := range urls {
		srv, err := NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = srv
	}
	return urls, servers
}

// TestHTTPRoundTrip: every message kind survives the wire against a real
// handler stack, and the session control plane works.
func TestHTTPRoundTrip(t *testing.T) {
	db := testDB(t)
	urls, servers := startHTTPOwners(t, db)
	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if hc.M() != db.M() || hc.N() != db.N() {
		t.Fatalf("dims %d/%d", hc.M(), hc.N())
	}
	s := open(t, hc)
	ctx := context.Background()

	l := db.List(0)
	resp, err := s.Do(ctx, 0, SortedReq{Pos: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(SortedResp).Entry; got != l.At(2) {
		t.Errorf("sorted over HTTP = %+v, want %+v", got, l.At(2))
	}
	resp, err = s.Do(ctx, 0, LookupReq{Item: l.At(4).Item, WantPos: true})
	if err != nil {
		t.Fatal(err)
	}
	if lr := resp.(LookupResp); lr.Pos != 4 || lr.Score != l.At(4).Score {
		t.Errorf("lookup over HTTP = %+v", lr)
	}
	// Mark before any probe: the piggyback is +Inf and must survive JSON.
	resp, err = s.Do(ctx, 1, MarkReq{Item: db.List(1).At(2).Item})
	if err != nil {
		t.Fatal(err)
	}
	if mr := resp.(MarkResp); !math.IsInf(mr.BestScore, 1) {
		t.Errorf("mark piggyback = %+v, want +Inf", mr)
	}
	resp, err = s.Do(ctx, 1, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(ProbeResp); pr.Entry != db.List(1).At(1) {
		t.Errorf("probe over HTTP = %+v", pr)
	}
	resp, err = s.Do(ctx, 2, TopKReq{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr := resp.(TopKResp); len(tr.Entries) != 3 || tr.Entries[0] != db.List(2).At(1) {
		t.Errorf("topk over HTTP = %+v", tr)
	}
	resp, err = s.Do(ctx, 2, AboveReq{T: db.List(2).At(10).Score})
	if err != nil {
		t.Fatal(err)
	}
	if ar := resp.(AboveResp); len(ar.Entries) == 0 {
		t.Error("above over HTTP returned nothing")
	}
	items := []list.ItemID{l.At(1).Item, l.At(2).Item}
	resp, err = s.Do(ctx, 0, FetchReq{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if fr := resp.(FetchResp); len(fr.Scores) != 2 || fr.Scores[0] != l.At(1).Score {
		t.Errorf("fetch over HTTP = %+v", fr)
	}

	st, err := s.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Total() == 0 {
		t.Error("stats lost the access tally")
	}
	if s.Elapsed() <= 0 {
		t.Error("no elapsed time recorded")
	}

	// Closing the session releases the owner state; its messages 404.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if servers[0].Owner().Sessions() != 0 {
		t.Errorf("owner holds %d sessions after close", servers[0].Owner().Sessions())
	}
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("closed session still answered: %v", err)
	}

	// Remote owner errors surface as client errors with the owner index.
	s2 := open(t, hc)
	if _, err := s2.Do(ctx, 0, SortedReq{Pos: 10_000}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("bad position over HTTP: %v", err)
	}
	if _, err := s2.Do(ctx, 9, ProbeReq{}); err == nil {
		t.Error("bad owner accepted")
	}
}

// TestHTTPConcurrentSessions: N sessions over the same owners, driven
// concurrently, must behave like N private clusters.
func TestHTTPConcurrentSessions(t *testing.T) {
	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)
	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			s, err := hc.Open(ctx, bestpos.BitArrayKind)
			if err != nil {
				errs[w] = err
				return
			}
			defer s.Close()
			// Each session probes its own private cursor: every probe i
			// must return position i+1 whatever the other sessions do.
			for i := 0; i < 5; i++ {
				resp, err := s.Do(ctx, 0, ProbeReq{})
				if err != nil {
					errs[w] = err
					return
				}
				if got := resp.(ProbeResp).Entry; got != db.List(0).At(i+1) {
					errs[w] = fmt.Errorf("session state interleaved: probe %d returned %+v", i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", w, err)
		}
	}
}

// TestHTTPRetryTransient: a single 500 from an owner must be absorbed by
// the client's one retry; a persistent failure must surface the owner
// index.
func TestHTTPRetryTransient(t *testing.T) {
	// A one-list cluster needs a one-list database to agree on M.
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srvOne, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Int32
	tsOne := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() > 0 && strings.HasPrefix(r.URL.Path, "/rpc/") {
			fail.Add(-1)
			http.Error(w, `{"error":"synthetic owner crash"}`, http.StatusInternalServerError)
			return
		}
		srvOne.Handler().ServeHTTP(w, r)
	}))
	defer tsOne.Close()
	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{tsOne.URL})})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx := context.Background()

	// One failure: absorbed by the retry.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Errorf("single 500 not retried: %v", err)
	}
	// Two consecutive failures: the single retry is spent, the error
	// surfaces and names the owner.
	fail.Store(2)
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 2}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("persistent 500: %v", err)
	}
	fail.Store(0)
	// 4xx responses are the caller's fault and must NOT be retried.
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 10_000}); err == nil {
		t.Error("bad position accepted")
	}

	// Cursor-advancing exchanges must NOT be retried: the client cannot
	// know whether the owner executed the lost request, and a replayed
	// probe would silently skip a list entry. One transient failure on a
	// probe therefore surfaces instead of being absorbed.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, ProbeReq{}); err == nil || !strings.Contains(err.Error(), "owner 0") {
		t.Errorf("probe after transient failure: %v (must fail, not retry)", err)
	}
	fail.Store(0)
	// The failed attempt never reached the owner, so the session's
	// cursor is intact: the next probe reads position 1.
	resp, err := s.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(1) {
		t.Errorf("probe after failed probe = %+v, want position 1", got)
	}
}

// TestRequestReplayability pins which message kinds the HTTP client may
// retry: everything except the cursor-advancing probe and above.
func TestRequestReplayability(t *testing.T) {
	replayable := map[Kind]bool{
		KindSorted: true, KindLookup: true, KindMark: true,
		KindTopK: true, KindFetch: true,
		KindProbe: false, KindAbove: false,
	}
	for _, req := range []Request{
		SortedReq{}, LookupReq{}, ProbeReq{}, MarkReq{}, TopKReq{}, AboveReq{}, FetchReq{},
	} {
		if got := req.Replayable(); got != replayable[req.Kind()] {
			t.Errorf("%s replayable = %v, want %v", req.Kind(), got, replayable[req.Kind()])
		}
	}
}

// TestHTTPCancel: a canceled context aborts an HTTP exchange promptly
// with ctx.Err() even while the owner hangs.
func TestHTTPCancel(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srv, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/rpc/") {
			<-release
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()
	defer close(release)
	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{ts.URL})})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Do(ctx, 0, SortedReq{Pos: 1})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("hung exchange: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestDialValidation: misconfigured clusters are rejected at dial time.
func TestDialValidation(t *testing.T) {
	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)

	if _, err := Dial(context.Background(), DialConfig{Topology: SingleTopology(nil)}); err == nil {
		t.Error("empty cluster accepted")
	}
	// Owners out of order: URL position must match list index.
	if _, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{urls[1], urls[0], urls[2]})}); err == nil ||
		!strings.Contains(err.Error(), "order") {
		t.Errorf("shuffled owners accepted: %v", err)
	}
	// Partial cluster: owner reports a 3-list database, cluster has 2.
	if _, err := Dial(context.Background(), DialConfig{Topology: SingleTopology(urls[:2])}); err == nil {
		t.Error("partial cluster accepted")
	}
	// Unreachable owner (the single retry must not mask it).
	if _, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{"http://127.0.0.1:1"})}); err == nil {
		t.Error("unreachable owner accepted")
	}
	// Mismatched list lengths across owners.
	other := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 10, M: 3, Seed: 5})
	srv, err := NewServer(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{urls[0], urls[1], ts.URL})}); err == nil {
		t.Error("mismatched list length accepted")
	}
}

// TestNormalizeOwnerURL: bare host:port grows a scheme, URLs pass through.
func TestNormalizeOwnerURL(t *testing.T) {
	cases := map[string]string{
		"localhost:9001":         "http://localhost:9001",
		" localhost:9001/ ":      "http://localhost:9001",
		"http://a.example":       "http://a.example",
		"https://b.example:8443": "https://b.example:8443",
	}
	for in, want := range cases {
		if got := NormalizeOwnerURL(in); got != want {
			t.Errorf("NormalizeOwnerURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestOwnerHandleBatch: a batch executes its inner requests in order,
// atomically, with exactly the owner-side effects of the messages sent
// one by one — and an inner failure aborts with the failing index while
// the prefix's work stays done.
func TestOwnerHandleBatch(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "b"
	if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	l := db.List(0)
	resp, err := o.HandleContext(context.Background(), sid, BatchReq{Reqs: []Request{
		ProbeReq{}, // reads position 1
		ProbeReq{}, // order matters: must read position 2, not 1 again
		LookupReq{Item: l.At(5).Item, WantPos: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	br := resp.(BatchResp)
	if len(br.Resps) != 3 {
		t.Fatalf("batch answered %d of 3", len(br.Resps))
	}
	if got := br.Resps[0].(ProbeResp).Entry; got != l.At(1) {
		t.Errorf("batch probe 1 = %+v", got)
	}
	if got := br.Resps[1].(ProbeResp).Entry; got != l.At(2) {
		t.Errorf("batch probe 2 = %+v, want position 2", got)
	}
	if got := br.Resps[2].(LookupResp); got.Pos != 5 {
		t.Errorf("batch lookup = %+v", got)
	}

	// Inner failure: the error names the index, the prefix's accesses
	// stay charged (the work was done), and the session stays usable.
	_, err = o.HandleContext(context.Background(), sid, BatchReq{Reqs: []Request{ProbeReq{}, SortedReq{Pos: -1}}})
	if err == nil || !strings.Contains(err.Error(), "batch[1]") {
		t.Errorf("failing batch: %v", err)
	}
	st, err := o.SessionStats(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses.Direct != 3 {
		t.Errorf("direct accesses after batches = %d, want 3 (2 + aborted batch's prefix)", st.Accesses.Direct)
	}

	// Nested batches are rejected.
	if _, err := o.HandleContext(context.Background(), sid, BatchReq{Reqs: []Request{BatchReq{Reqs: []Request{ProbeReq{}}}}}); err == nil {
		t.Error("nested batch accepted")
	}
}

// TestBatchMatchesUnbatched: the same request sequence, batched and
// unbatched, must leave two sessions in identical states — coalescing is
// a wire optimization, not a semantic change.
func TestBatchMatchesUnbatched(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		SortedReq{Pos: 1},
		LookupReq{Item: db.List(0).At(7).Item, WantPos: true},
		ProbeReq{},
		MarkReq{Item: db.List(0).At(3).Item},
		TopKReq{K: 4},
		AboveReq{T: db.List(0).At(9).Score},
	}
	for _, sid := range []string{"one", "batched"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	var single []Response
	for _, req := range reqs {
		resp, err := o.HandleContext(context.Background(), "one", req)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, resp)
	}
	resp, err := o.HandleContext(context.Background(), "batched", BatchReq{Reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(BatchResp).Resps; !reflect.DeepEqual(got, single) {
		t.Errorf("batched responses differ:\n%v\nvs unbatched\n%v", got, single)
	}
	a, _ := o.SessionStats("one")
	b, _ := o.SessionStats("batched")
	if a.Accesses != b.Accesses || a.Best != b.Best || a.Depth != b.Depth {
		t.Errorf("session state diverged: unbatched %+v vs batched %+v", a, b)
	}
}

// TestSessionTTLEviction: sessions idle past the TTL are reclaimed, the
// eviction count is exposed, and live sessions survive the sweep.
func TestSessionTTLEviction(t *testing.T) {
	db := testDB(t)
	o, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Generous TTL-to-touch ratio: the live session is touched every
	// ~10ms against a 200ms idle bound, so only a 200ms scheduler stall
	// could falsely evict it — headroom for loaded CI runners and -race.
	o.SetSessionTTL(200 * time.Millisecond)
	for _, sid := range []string{"idle", "live"} {
		if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
			t.Fatal(err)
		}
	}
	// Keep "live" warm past the idle bound of "idle".
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := o.HandleContext(context.Background(), "live", SortedReq{Pos: 1}); err != nil {
			t.Fatalf("live session evicted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := o.HandleContext(context.Background(), "idle", ProbeReq{}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("idle session survived the TTL: %v", err)
	}
	if n := o.Evictions(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if n := o.Sessions(); n != 1 {
		t.Errorf("%d sessions left, want 1", n)
	}
	if st := o.Info(); st.Evictions != 1 || st.OpenSessions != 1 {
		t.Errorf("Info() = evictions %d, open %d", st.Evictions, st.OpenSessions)
	}
	// TTL 0 disables eviction entirely.
	o.SetSessionTTL(0)
	time.Sleep(50 * time.Millisecond)
	if _, err := o.HandleContext(context.Background(), "live", SortedReq{Pos: 1}); err != nil {
		t.Errorf("eviction ran with TTL disabled: %v", err)
	}
}

// TestHTTPStatsExposesEvictions: the /stats handshake carries the
// eviction tally and codec advertisement over the wire.
func TestHTTPStatsExposesEvictions(t *testing.T) {
	db := testDB(t)
	urls, servers := startHTTPOwners(t, db)
	servers[0].Owner().SetSessionTTL(10 * time.Millisecond)
	if err := servers[0].Owner().Open("gone", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// Any open sweeps; the idle session must be reclaimed.
	if err := servers[0].Owner().Open("fresh", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(urls[0] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st OwnerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Evictions != 1 {
		t.Errorf("/stats evictions = %d, want 1", st.Evictions)
	}
	if st.OpenSessions != 1 {
		t.Errorf("/stats openSessions = %d, want 1", st.OpenSessions)
	}
	found := false
	for _, c := range st.Codecs {
		found = found || c == CodecBinary
	}
	if !found {
		t.Errorf("/stats codecs = %v: binary not advertised", st.Codecs)
	}
}

// TestWireNegotiation: the binary codec is the only data-plane codec.
// Advertising owners dial and answer over it; a handshake that does not
// advertise it (an owner from before the codec) fails Dial with an error
// naming that owner; and a replica that comes back from down without it
// is never made routable by the prober, which logs the refusal naming
// the owner and replica.
func TestWireNegotiation(t *testing.T) {
	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)

	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology(urls)})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	resp, err := s.Do(context.Background(), 0, SortedReq{Pos: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(SortedResp).Entry; got != db.List(0).At(1) {
		t.Errorf("sorted over wire = %+v", got)
	}
	// A coalesced round over the same wire.
	batch, err := s.Do(context.Background(), 0, BatchReq{Reqs: []Request{
		SortedReq{Pos: 2}, SortedReq{Pos: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := batch.(BatchResp).Resps[1].(SortedResp).Entry; got != db.List(0).At(3) {
		t.Errorf("batched sorted over wire = %+v", got)
	}

	// stripCodecs serves list 0 but drops the codec advertisement from
	// its handshake.
	stripCodecs := func() http.Handler {
		srv, err := NewServer(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/stats" && r.URL.Query().Get("sid") == "" {
				st := srv.Owner().Info()
				st.Codecs = nil
				writeJSON(w, http.StatusOK, st)
				return
			}
			srv.Handler().ServeHTTP(w, r)
		})
	}
	stripped := httptest.NewServer(stripCodecs())
	defer stripped.Close()
	_, err = Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{stripped.URL, urls[1], urls[2]})})
	if err == nil {
		t.Fatal("dial accepted an owner that does not advertise the binary codec")
	}
	for _, want := range []string{"owner 0 replica 0", stripped.URL, CodecBinary} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dial error %q does not name %q", err, want)
		}
	}

	// The same owner as a replica that is down at dial time: once up,
	// the prober's handshake refuses it, however often it runs.
	late := &lateGate{inner: stripCodecs()}
	tsLate := httptest.NewServer(late)
	defer tsLate.Close()
	var log syncLog
	hc2, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{urls[0], tsLate.URL}, {urls[1]}, {urls[2]}},
		HealthInterval: 10 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc2.Close()
	late.up.Store(true)
	refusal := `msg="replica refused" list=0 replica=1 url=` + tsLate.URL
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && strings.Count(log.String(), refusal) < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := strings.Count(log.String(), refusal); n < 2 {
		t.Fatalf("prober logged %d refusals of the returned replica, want 2:\n%s", n, log.String())
	}
	if hc2.lists[0][1].validated.Load() || hc2.Health()[1].Healthy {
		t.Error("prober readmitted a replica that does not advertise the binary codec")
	}
}

// syncLog is a log sink safe for the prober's goroutines.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestBatchWithProbeNotRetried: a batch containing a cursor-advancing
// request must not be replayed after a transient failure — same contract
// as the bare message.
func TestBatchWithProbeNotRetried(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 60, M: 1, Seed: 5})
	srvOne, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() > 0 && strings.HasPrefix(r.URL.Path, "/rpc/") {
			fail.Add(-1)
			http.Error(w, `{"error":"synthetic owner crash"}`, http.StatusInternalServerError)
			return
		}
		srvOne.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	hc, err := Dial(context.Background(), DialConfig{Topology: SingleTopology([]string{ts.URL})})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s := open(t, hc)
	ctx := context.Background()

	// All-replayable batch: absorbed by the retry.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, BatchReq{Reqs: []Request{SortedReq{Pos: 1}, SortedReq{Pos: 2}}}); err != nil {
		t.Errorf("replayable batch not retried: %v", err)
	}
	// Batch with a probe: fails fast instead of replaying.
	fail.Store(1)
	if _, err := s.Do(ctx, 0, BatchReq{Reqs: []Request{SortedReq{Pos: 1}, ProbeReq{}}}); err == nil {
		t.Error("probe-carrying batch was retried")
	}
	fail.Store(0)
	// The failed attempt never reached the owner: the next probe still
	// reads position 1.
	resp, err := s.Do(ctx, 0, ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ProbeResp).Entry; got != one.List(0).At(1) {
		t.Errorf("probe after failed batch = %+v, want position 1", got)
	}
}

// TestSyncRefusesPositionsDelta: /session/sync takes a session's state
// as {sid, ranges, depth}. The per-exchange mirror delta of older
// originators, {sid, positions, depth}, must be refused with a 400 and
// install nothing, not be accepted with its positions dropped.
func TestSyncRefusesPositionsDelta(t *testing.T) {
	db := testDB(t)
	srv, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Owner().Open("s", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/session/sync", ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	state := func() (best, depth int) {
		t.Helper()
		st, err := srv.Owner().SessionStats("s")
		if err != nil {
			t.Fatal(err)
		}
		return st.Best, st.Depth
	}

	if code := post(`{"sid":"s","positions":[1,2],"depth":2}`); code != http.StatusBadRequest {
		t.Errorf("old positions delta: status %d, want 400", code)
	}
	if best, depth := state(); best != 0 || depth != 0 {
		t.Errorf("refused sync installed state: best %d depth %d, want 0 0", best, depth)
	}
	if code := post(`{"sid":"s","ranges":[[1,2]],"depth":2}`); code != http.StatusOK {
		t.Fatalf("ranges sync: status %d, want 200", code)
	}
	if best, depth := state(); best != 2 || depth != 2 {
		t.Errorf("ranges sync installed best %d depth %d, want 2 2", best, depth)
	}
}

// TestServerRejectsBadRequests: the handler maps malformed input to 4xx.
func TestServerRejectsBadRequests(t *testing.T) {
	db := testDB(t)
	srv, err := NewServer(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Owner().Open("s", bestpos.BitArrayKind); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	binFrame := func(req Request) string {
		b, err := AppendRequestBinary(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/rpc/zzz?sid=s", binFrame(SortedReq{Pos: 1}), http.StatusBadRequest},
		{http.MethodPost, "/rpc/sorted?sid=s", "not a frame", http.StatusBadRequest},
		{http.MethodPost, "/rpc/sorted?sid=s", binFrame(SortedReq{Pos: 0}), http.StatusBadRequest},
		{http.MethodPost, "/rpc/sorted", binFrame(SortedReq{Pos: 1}), http.StatusBadRequest},      // no sid
		{http.MethodPost, "/rpc/sorted?sid=zz", binFrame(SortedReq{Pos: 1}), http.StatusNotFound}, // unknown sid
		{http.MethodPost, "/rpc/sorted?sid=s", `{"pos":1}`, http.StatusUnsupportedMediaType},      // JSON body
		{http.MethodGet, "/rpc/sorted?sid=s", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/session/open", `{"sid":"x","tracker":99}`, http.StatusBadRequest},
		{http.MethodPost, "/session/open", `{"tracker":0}`, http.StatusBadRequest}, // empty sid
		{http.MethodGet, "/session/open", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/session/close", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/stats", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/stats?sid=zz", "", http.StatusGone},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		// Control-plane bodies and the JSON /rpc row are JSON; every
		// other /rpc body travels as the binary frames it holds.
		ct := ContentTypeJSON
		if strings.HasPrefix(c.path, "/rpc/") && !strings.HasPrefix(c.body, "{") {
			ct = ContentTypeBinary
		}
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	// NewServer validates the list index.
	if _, err := NewServer(db, 7); err == nil {
		t.Error("bad list index accepted")
	}
	if _, err := NewServer(nil, 0); err == nil {
		t.Error("nil database accepted")
	}
}
