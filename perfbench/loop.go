package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// kind classifies an operation; each kind gets its own latency series.
type kind int

const (
	kindQuery kind = iota
	kindUpdate
)

// outcome is what one operation reports back to the loop.
type outcome struct {
	kind kind
	// lat is the latency of the call into the system alone; checking
	// the answer is not timed.
	lat time.Duration
	// accesses is the query's sorted + random + direct accesses.
	accesses int64
}

// clientFunc performs op j of one client. A non-nil error is a failed,
// refused or wrong operation.
type clientFunc func(j int) (outcome, error)

// sample is one successful operation of a phase.
type sample struct {
	// at is when the operation returned, from the start of the phase.
	at  time.Duration
	lat time.Duration
}

// phase is what the clients did during one measured interval.
type phase struct {
	ops       [2][]sample // by kind
	elapsed   time.Duration
	attempted int64
	failed    int64
	// accesses sums the accesses of the successful queries.
	accesses int64
	// heap holds the live-heap readings.
	heap []heapSample
	// mem is the runtime's allocation and GC activity over the phase.
	mem runtime.MemStats
}

// count returns the number of operations of kind k.
func (p *phase) count(k kind) int { return len(p.ops[k]) }

// loop runs every client closed-loop — each sends its next operation
// only after the previous one returned — until d has passed, then waits
// for the operations in flight. next holds each client's next op index
// and is advanced, so consecutive phases continue one op sequence.
func loop(clients []clientFunc, next []int, d time.Duration, errs *errLog) *phase {
	p := &phase{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]phase, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	stopHeap := sampleHeap(start)
	for c, do := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := &per[c]
			for time.Now().Before(deadline) {
				out, err := do(next[c])
				next[c]++
				mine.attempted++
				if err != nil {
					mine.failed++
					errs.add(fmt.Errorf("client %d op %d: %w", c, next[c]-1, err))
					continue
				}
				mine.ops[out.kind] = append(mine.ops[out.kind], sample{time.Since(start), out.lat})
				mine.accesses += out.accesses
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem)
	p.heap = stopHeap()
	p.mem.TotalAlloc -= before.TotalAlloc
	p.mem.NumGC -= before.NumGC
	p.mem.PauseTotalNs -= before.PauseTotalNs
	for _, c := range per {
		for k := range c.ops {
			p.ops[k] = append(p.ops[k], c.ops[k]...)
		}
		p.attempted += c.attempted
		p.failed += c.failed
		p.accesses += c.accesses
	}
	return p
}

// heapSample is one reading of the live heap.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

// sampleHeap samples the live heap — the heap the last GC marked
// reachable — every few milliseconds from start until the returned stop
// function is called, and returns the samples; stop waits for the
// sampler to exit.
func sampleHeap(start time.Time) (stop func() []heapSample) {
	metric := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out []heapSample
	read := func() {
		metrics.Read(metric)
		out = append(out, heapSample{time.Since(start), metric[0].Value.Uint64()})
	}
	read()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() []heapSample {
		close(done)
		<-exited
		return out
	}
}

// peakHeap returns the median over the phase's windows of each
// window's high-water mark of the live heap, in bytes.
func peakHeap(samples []heapSample, elapsed time.Duration) float64 {
	peaks := make([]float64, windows)
	for _, s := range samples {
		w := min(int(s.at/(elapsed/windows)), windows-1)
		peaks[w] = max(peaks[w], float64(s.bytes))
	}
	return median(peaks)
}

// quantile returns the nearest-rank q-quantile of xs, in milliseconds.
// Callers sort xs first.
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return float64(xs[i]) / float64(time.Millisecond)
}

// tailQuantile is the highest percentile, up to p99, that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	return min(0.99, 1-10/float64(max(n, 20)))
}

// windows is how many equal windows a phase's operations are split into
// by completion time. Every rate and latency is computed per window and
// the median over the windows is reported, so a stall that hits one
// window does not move the result.
const windows = 6

// summary is a latency series summarized per window.
type summary struct {
	rate, p50, tail float64
}

// summarize returns the median over the phase's windows of the rate, the
// median latency and the tail latency of xs, and notes each window on
// standard error.
func summarize(name string, xs []sample, elapsed time.Duration) summary {
	width := elapsed / windows
	per := make([][]time.Duration, windows)
	for _, x := range xs {
		w := min(int(x.at/width), windows-1)
		per[w] = append(per[w], x.lat)
	}
	var rates, p50s, tails []float64
	for w, lats := range per {
		slices.Sort(lats)
		q := tailQuantile(len(lats))
		rates = append(rates, float64(len(lats))/width.Seconds())
		p50s = append(p50s, quantile(lats, 0.5))
		tails = append(tails, quantile(lats, q))
		fmt.Fprintf(os.Stderr, "perfbench: %s window %d: %d samples, %.1f/s, p50 %.3f ms, p%.4g %.3f ms\n",
			name, w, len(lats), rates[w], p50s[w], 100*q, tails[w])
	}
	return summary{median(rates), median(p50s), median(tails)}
}

// median returns the median of xs, or 0 for none: a layer the workload
// does not exercise reports zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// errLog keeps the first few failures for standard error.
type errLog struct {
	mu   sync.Mutex
	n    int
	keep []error
}

func (l *errLog) add(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.keep) < 5 {
		l.keep = append(l.keep, err)
	}
}

func (l *errLog) report() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, err := range l.keep {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", err)
	}
	if l.n > len(l.keep) {
		fmt.Fprintf(os.Stderr, "perfbench: %d more failures\n", l.n-len(l.keep))
	}
}

// settleGoroutines waits until the goroutine count is back to base and
// reports an error if it is not within a few seconds.
func settleGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines after teardown, %d before set-up", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
