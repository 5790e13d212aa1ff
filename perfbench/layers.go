package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topk"
	"topk/internal/list"
	"topk/internal/transport"
)

// probes collects the traced run's per-layer measurements. Every probe
// sits outside the program: a middleware around the owners' HTTP
// handlers, a wrapper around the store's list readers, and tallies of
// what the benchmark's own calls into each layer returned.
type probes struct {
	wire  wireProbe
	store storeProbe

	mu sync.Mutex
	q  queryTally
}

// queryTally sums what the benchmark's own calls returned.
type queryTally struct {
	// Distributed queries: their spans, rounds and messages.
	distQueries, distNs, rounds, messages int64
	spans, spanNs, attempts, roundMaxNs   int64
	loopbackNs                            int64
	// Centralized queries run by core.Run.
	coreQueries, coreNs, coreRounds int64
	// Update batches by outcome: suppressed everywhere, or re-evaluated.
	suppressed, crossing []time.Duration
}

// reset forgets everything recorded so far, so the traced phase is
// measured without its warm-up. No client may be running.
func (p *probes) reset() {
	w := &p.wire
	for c := range classes {
		w.n[c].Store(0)
		w.ns[c].Store(0)
	}
	w.bytes.Store(0)
	w.conns.Store(0)
	w.mu.Lock()
	w.captured = 0
	w.reqs, w.resps = nil, nil
	w.mu.Unlock()
	w.shedBase = w.shedTotal()
	p.store.reads.Store(0)
	p.store.ns.Store(0)
	p.mu.Lock()
	p.q = queryTally{}
	p.mu.Unlock()
}

// noteDist tallies one traced distributed query; loopback is the same
// query's run time without a wire.
func (p *probes) noteDist(res *topk.DistResult, lat, loopback time.Duration) {
	roundMax := make(map[int]time.Duration)
	var spanNs, attempts int64
	for _, sp := range res.Stats.Trace {
		spanNs += int64(sp.Duration)
		attempts += int64(sp.Attempts)
		roundMax[sp.Round] = max(roundMax[sp.Round], sp.Duration)
	}
	var slowest time.Duration
	for _, d := range roundMax {
		slowest += d
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &p.q
	q.distQueries++
	q.distNs += int64(lat)
	q.rounds += int64(res.Stats.Net.Rounds)
	q.messages += res.Stats.Net.Messages
	q.spans += int64(len(res.Stats.Trace))
	q.spanNs += spanNs
	q.attempts += attempts
	q.roundMaxNs += int64(slowest)
	q.loopbackNs += int64(loopback)
}

// noteCore tallies one traced centralized query.
func (p *probes) noteCore(rounds int, lat time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.q.coreQueries++
	p.q.coreNs += int64(lat)
	p.q.coreRounds += int64(rounds)
}

// noteUpdate files one update batch's latency by whether any standing
// query was re-evaluated.
func (p *probes) noteUpdate(reevaluated bool, lat time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reevaluated {
		p.q.crossing = append(p.q.crossing, lat)
	} else {
		p.q.suppressed = append(p.q.suppressed, lat)
	}
}

// Request classes the owner middleware tells apart.
const (
	classRPC        = iota // data-plane /rpc exchanges of queries
	classUpdate            // /rpc/update, the live write path
	classControl           // session open/close/sync/state, /stats of a session, filters
	classBackground        // health probes and the dial handshake
	classes
)

// classify maps an owner request to its class.
func classify(r *http.Request) int {
	path := r.URL.Path
	switch {
	case path == "/rpc/"+string(transport.KindUpdate):
		return classUpdate
	case strings.HasPrefix(path, "/rpc/"):
		return classRPC
	case path == "/healthz", path == "/stats" && r.URL.Query().Get("sid") == "":
		return classBackground
	}
	return classControl
}

// maxFrames bounds the binary /rpc frames captured for the codec replay.
const maxFrames = 512

// wireProbe is the owner-side transport probe: a middleware around
// every owner's handler that counts and times requests by class,
// counts wire bytes, captures a sample of binary frames, and — through
// http.Server.ConnState — counts accepted connections.
type wireProbe struct {
	n, ns        [classes]atomic.Int64
	bytes, conns atomic.Int64
	owners       []*transport.Owner
	shedBase     int64

	mu          sync.Mutex
	captured    int
	reqs, resps [][]byte
}

// connState counts new connections; install it as an
// http.Server.ConnState hook.
func (w *wireProbe) connState(_ net.Conn, s http.ConnState) {
	if s == http.StateNew {
		w.conns.Add(1)
	}
}

// wrap returns h behind the probe.
func (w *wireProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		class := classify(r)
		capture := class == classRPC &&
			r.Header.Get("Content-Type") == transport.ContentTypeBinary &&
			w.claimCapture()
		var req []byte
		if capture {
			var err error
			if req, err = io.ReadAll(r.Body); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(req))
		}
		cw := &captureWriter{ResponseWriter: rw, keep: capture}
		start := time.Now()
		h.ServeHTTP(cw, r)
		w.ns[class].Add(int64(time.Since(start)))
		w.n[class].Add(1)
		w.bytes.Add(max(r.ContentLength, 0) + cw.n)
		if capture && cw.status == http.StatusOK {
			w.mu.Lock()
			w.reqs = append(w.reqs, req)
			w.resps = append(w.resps, cw.body.Bytes())
			w.mu.Unlock()
		}
	})
}

// claimCapture reserves one of the maxFrames capture slots.
func (w *wireProbe) claimCapture() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.captured == maxFrames {
		return false
	}
	w.captured++
	return true
}

// shedTotal sums the exchanges the owners refused under admission
// control since they started.
func (w *wireProbe) shedTotal() int64 {
	var n int64
	for _, o := range w.owners {
		n += o.Shed()
	}
	return n
}

// captureWriter counts response bytes and, when keep is set, copies
// them. Unwrap exposes the underlying writer to http.ResponseController,
// so the handler sees the same optional interfaces either way.
type captureWriter struct {
	http.ResponseWriter
	keep   bool
	status int
	n      int64
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	if c.keep {
		c.body.Write(p[:n])
	}
	return n, err
}

func (c *captureWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// storeProbe counts and times every read of the wrapped list readers.
type storeProbe struct {
	reads, ns atomic.Int64
}

func (s *storeProbe) since(start time.Time) {
	s.ns.Add(int64(time.Since(start)))
	s.reads.Add(1)
}

// The optional methods the layers above a list reader type-assert: the
// owner's TPUT above-scan seeks by score on stripe lists, and database
// validation calls Validate where a list has it.
type (
	scoreSeeker interface{ SeekScore(t float64) int }
	validator   interface{ Validate() error }
)

// wrapReader returns r behind the store probe, keeping exactly the
// optional methods r has, so the traced run takes the same code paths
// as the plain one.
func (s *storeProbe) wrapReader(r list.Reader) list.Reader {
	base := countedReader{r: r, p: s}
	_, seeks := r.(scoreSeeker)
	_, validates := r.(validator)
	switch {
	case seeks && validates:
		// No list type has both today; one that does needs a wrapper
		// type here, or the traced run would silently drop a method.
		panic("perfbench: list reader with both SeekScore and Validate has no faithful wrapper")
	case seeks:
		return &countedSeeker{base}
	case validates:
		return &countedValidator{base}
	}
	return &base
}

// wrapDatabase returns db with every list behind the store probe.
func (s *storeProbe) wrapDatabase(db *list.Database) (*list.Database, error) {
	lists := make([]list.Reader, db.M())
	for i := range lists {
		lists[i] = s.wrapReader(db.List(i))
	}
	return list.NewReaderDatabase(lists...)
}

type countedReader struct {
	r list.Reader
	p *storeProbe
}

func (c *countedReader) Len() int { return c.r.Len() }

func (c *countedReader) At(pos int) list.Entry {
	defer c.p.since(time.Now())
	return c.r.At(pos)
}

func (c *countedReader) PositionOf(d list.ItemID) int {
	defer c.p.since(time.Now())
	return c.r.PositionOf(d)
}

func (c *countedReader) ScoreOf(d list.ItemID) float64 {
	defer c.p.since(time.Now())
	return c.r.ScoreOf(d)
}

type countedSeeker struct{ countedReader }

func (c *countedSeeker) SeekScore(t float64) int {
	defer c.p.since(time.Now())
	return c.r.(scoreSeeker).SeekScore(t)
}

type countedValidator struct{ countedReader }

func (c *countedValidator) Validate() error { return c.r.(validator).Validate() }

// codecCost replays captured binary frames through the codec: every
// request frame is decoded and re-encoded, and likewise every response
// frame, in passes until a tenth of a second has gone by.
func codecCost(reqs, resps [][]byte) (decodeNs, encodeNs, bytesPerFrame float64, err error) {
	frames := len(reqs) + len(resps)
	if frames == 0 {
		return 0, 0, 0, nil
	}
	var size int
	for i := range reqs {
		size += len(reqs[i]) + len(resps[i])
	}
	var dec, enc time.Duration
	var buf []byte
	passes := 0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; passes++ {
		for i := range reqs {
			t0 := time.Now()
			req, err := transport.DecodeRequestBinary(reqs[i])
			if err != nil {
				return 0, 0, 0, err
			}
			resp, err := transport.DecodeResponseBinary(resps[i])
			if err != nil {
				return 0, 0, 0, err
			}
			t1 := time.Now()
			if buf, err = transport.AppendRequestBinary(buf[:0], req); err != nil {
				return 0, 0, 0, err
			}
			if buf, err = transport.AppendResponseBinary(buf[:0], resp); err != nil {
				return 0, 0, 0, err
			}
			enc += time.Since(t1)
			dec += t1.Sub(t0)
		}
	}
	n := float64(frames * passes)
	return float64(dec) / n, float64(enc) / n, float64(size) / float64(frames), nil
}
