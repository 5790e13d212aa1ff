package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"topk/internal/live"
	"topk/internal/store/stripe"
)

// system is one set-up instance of a workload's system under test.
type system struct {
	clients []clientFunc
	// check runs the end-of-run checks once the clients have stopped
	// and returns one entry per check, nil when it passed.
	check func() []error
	close func()
	// Traced runs only: the stripe database whose cache the queries
	// use, and the live coordinator whose accounting they move.
	stripeDB *stripe.DB
	live     *live.Coordinator
}

// workload describes how to set up and drive one workload.
type workload struct {
	// primary is the operation the workload is defined by; the op_*
	// metrics describe it.
	primary kind
	// warmup runs the clients unmeasured after set-up.
	warmup time.Duration
	// setup builds the system; a non-nil probes instruments it.
	setup func(p *probes) (*system, error)
}

// setupReps is how many times set-up runs in an end-to-end run; setup_s
// is the median.
const setupReps = 15

// tally accumulates operation and check outcomes across phases.
type tally struct {
	attempted, failed int64
	errs              errLog
}

// drive runs the clients for the warm-up and then for d, and returns
// the measured phase. measuring, when non-nil, runs in between.
func (t *tally) drive(w workload, sys *system, d time.Duration, measuring func()) *phase {
	next := make([]int, len(sys.clients))
	if w.warmup > 0 {
		warm := loop(sys.clients, next, w.warmup, &t.errs)
		t.attempted += warm.attempted
		t.failed += warm.failed
	}
	if measuring != nil {
		measuring()
	}
	runtime.GC()
	ph := loop(sys.clients, next, d, &t.errs)
	t.attempted += ph.attempted
	t.failed += ph.failed
	return ph
}

// finish runs the system's end-of-run checks and tears it down.
func (t *tally) finish(sys *system) {
	for _, err := range sys.check() {
		t.attempted++
		if err != nil {
			t.failed++
			t.errs.add(fmt.Errorf("end-of-run check: %w", err))
		}
	}
	sys.close()
}

// measure runs a workload end to end, or traced, and assembles the
// result line.
func measure(cfg config, w workload) (*result, error) {
	base := runtime.NumGoroutine()
	d := time.Duration(cfg.seconds * float64(time.Second))
	t := &tally{}
	var metrics map[string]metric
	if !cfg.trace {
		var times []float64
		var sys *system
		for r := range setupReps {
			start := time.Now()
			s, err := w.setup(nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			times = append(times, time.Since(start).Seconds())
			if r < setupReps-1 {
				s.close()
			} else {
				sys = s
			}
		}
		ph := t.drive(w, sys, d, nil)
		t.finish(sys)
		metrics = endToEnd(w.primary, ph, median(times))
	} else {
		// The untraced half runs first, on a system without probes;
		// the traced half then runs on an instrumented one. The
		// difference between the two is the tracing overhead.
		plainSys, err := w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		plain := t.drive(w, plainSys, d/2, nil)
		t.finish(plainSys)
		p := &probes{}
		sys, err := w.setup(p)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		var before snapshot
		traced := t.drive(w, sys, d/2, func() {
			p.reset()
			before = snapshotOf(sys)
		})
		after := snapshotOf(sys)
		metrics, err = perLayer(w.primary, p, plain, traced, before, after)
		t.finish(sys)
		if err != nil {
			return nil, err
		}
	}
	t.attempted++
	if err := settleGoroutines(base); err != nil {
		t.failed++
		t.errs.add(err)
	}
	t.errs.report()
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// endToEnd assembles the end-to-end metrics of an untraced phase.
func endToEnd(primary kind, ph *phase, setup float64) map[string]metric {
	m := map[string]metric{
		"setup_s":      {setup, "s"},
		"peak_heap_mb": {peakHeap(ph.heap, ph.elapsed) / (1 << 20), "MB"},
	}
	q := summarize("query", ph.ops[kindQuery], ph.elapsed)
	m["query_qps"] = metric{q.rate, "1/s"}
	m["query_p50_ms"] = metric{q.p50, "ms"}
	m["query_p99_ms"] = metric{q.tail, "ms"}
	if primary != kindQuery {
		q = summarize("op", ph.ops[primary], ph.elapsed)
	}
	m["op_per_s"] = metric{q.rate, "1/s"}
	m["op_p50_ms"] = metric{q.p50, "ms"}
	m["op_p99_ms"] = metric{q.tail, "ms"}
	m["accesses_per_query"] = metric{float64(ph.accesses) / float64(max(ph.count(kindQuery), 1)), "count"}
	return m
}

// snapshot holds the cumulative counters a traced phase is measured
// against.
type snapshot struct {
	cache stripe.CacheStats
	live  live.Accounting
}

func snapshotOf(sys *system) snapshot {
	var s snapshot
	if sys.stripeDB != nil {
		s.cache = sys.stripeDB.CacheStats()
	}
	if sys.live != nil {
		s.live = sys.live.Accounting()
	}
	return s
}

// ratio is a/b, or 0 when b is 0: a layer the workload does not
// exercise reports zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianMs returns the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return median(ms)
}

// perLayer assembles the per-layer metrics of a traced phase, plus the
// tracing overhead against the untraced phase of the same run.
func perLayer(primary kind, p *probes, plain, traced *phase, before, after snapshot) (map[string]metric, error) {
	ops := float64(traced.count(kindQuery) + traced.count(kindUpdate))
	queries := float64(p.q.distQueries + p.q.coreQueries)
	w := &p.wire
	rpcNs := float64(w.ns[classRPC].Load())
	storeNs := float64(p.store.ns.Load())
	w.mu.Lock()
	reqs, resps := w.reqs, w.resps
	w.mu.Unlock()
	dec, enc, frameBytes, err := codecCost(reqs, resps)
	if err != nil {
		return nil, fmt.Errorf("codec replay: %w", err)
	}
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	batches := float64(after.live.UpdateBatches - before.live.UpdateBatches)
	us, ms := 1e3, 1e6
	m := map[string]metric{
		"owner.rpc_per_op":                {ratio(float64(w.n[classRPC].Load()), ops), "count"},
		"owner.control_per_op":            {ratio(float64(w.n[classControl].Load()), ops), "count"},
		"owner.conns_accepted_per_op":     {ratio(float64(w.conns.Load()), ops), "count"},
		"owner.rpc_handler_us":            {ratio(rpcNs, float64(w.n[classRPC].Load())) / us, "us"},
		"owner.control_handler_us_per_op": {ratio(float64(w.ns[classControl].Load()), ops) / us, "us"},
		"owner.update_handler_us":         {ratio(float64(w.ns[classUpdate].Load()), float64(w.n[classUpdate].Load())) / us, "us"},
		"owner.shed_per_op":               {ratio(float64(w.shedTotal()-w.shedBase), ops), "count"},
		"wire.requests_per_op":            {ratio(float64(w.n[classRPC].Load()+w.n[classUpdate].Load()+w.n[classControl].Load()), ops), "count"},
		"wire.bytes_per_op":               {ratio(float64(w.bytes.Load()), ops), "B"},

		"client.exchanges_per_op":      {ratio(float64(p.q.spans), ops), "count"},
		"client.exchange_us":           {ratio(float64(p.q.spanNs), float64(p.q.spans)) / us, "us"},
		"client.attempts_per_exchange": {ratio(float64(p.q.attempts), float64(p.q.spans)), "count"},
		"client.net_us_per_op":         {ratio(float64(p.q.spanNs)-rpcNs, ops) / us, "us"},

		"codec.decode_ns_per_frame": {dec, "ns"},
		"codec.encode_ns_per_frame": {enc, "ns"},
		"codec.bytes_per_frame":     {frameBytes, "B"},

		"dist.rounds_per_query":      {ratio(float64(p.q.rounds), float64(p.q.distQueries)), "count"},
		"dist.messages_per_query":    {ratio(float64(p.q.messages), float64(p.q.distQueries)), "count"},
		"dist.self_ms_per_query":     {ratio(float64(p.q.distNs-p.q.roundMaxNs), float64(p.q.distQueries)) / ms, "ms"},
		"dist.loopback_ms_per_query": {ratio(float64(p.q.loopbackNs), float64(p.q.distQueries)) / ms, "ms"},

		"store.reads_per_query":      {ratio(float64(p.store.reads.Load()), queries), "count"},
		"store.read_ns":              {ratio(storeNs, float64(p.store.reads.Load())), "ns"},
		"store.self_ms_per_query":    {ratio(storeNs, queries) / ms, "ms"},
		"stripe.cache_hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"stripe.misses_per_query":    {ratio(misses, queries), "count"},
		"stripe.evictions_per_query": {ratio(float64(after.cache.Evictions-before.cache.Evictions), queries), "count"},

		"core.self_ms_per_query": {ratio(float64(p.q.coreNs)-storeNs, float64(p.q.coreQueries)) / ms, "ms"},
		"core.rounds_per_query":  {ratio(float64(p.q.coreRounds), float64(p.q.coreQueries)), "count"},

		"live.reevals_per_update":   {ratio(float64(after.live.Reevaluations-before.live.Reevaluations), batches), "count"},
		"live.suppressed_ratio":     {ratio(float64(after.live.Suppressed-before.live.Suppressed), float64(after.live.NaiveReevals-before.live.NaiveReevals)), "ratio"},
		"live.ctl_msgs_per_update":  {ratio(float64(after.live.FilterMessages-before.live.FilterMessages), batches), "count"},
		"live.suppressed_update_ms": {medianMs(p.q.suppressed), "ms"},
		"live.crossing_update_ms":   {medianMs(p.q.crossing), "ms"},

		"runtime.alloc_bytes_per_op": {ratio(float64(traced.mem.TotalAlloc), ops), "B"},
		"runtime.gc_cycles_per_op":   {ratio(float64(traced.mem.NumGC), ops), "count"},
		"runtime.gc_pause_us_per_op": {ratio(float64(traced.mem.PauseTotalNs), ops) / us, "us"},
	}
	untraced := summarize("untraced op", plain.ops[primary], plain.elapsed)
	withTrace := summarize("traced op", traced.ops[primary], traced.elapsed)
	m["trace.op_p50_overhead_pct"] = metric{100 * (ratio(withTrace.p50, untraced.p50) - 1), "%"}
	m["trace.op_rate_overhead_pct"] = metric{100 * (ratio(untraced.rate, withTrace.rate) - 1), "%"}
	fmt.Fprintf(os.Stderr, "perfbench: traced phase: %.0f ops, %d distributed and %d centralized queries\n",
		ops, p.q.distQueries, p.q.coreQueries)
	return m, nil
}
