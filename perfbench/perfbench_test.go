package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"topk"
	"topk/internal/core"
	"topk/internal/list"
)

// benchmarkSpec is the part of BENCHMARK.json the result line must
// agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, tamper func(*inputs)) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 0.6, trace: trace, tiny: true, workdir: t.TempDir(), tamper: tamper}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json at tiny sizes, plain
// and traced, and checks the result line carries exactly the declared
// metrics with their units and no failure.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestBadFlags checks that bad flags fail without printing a result.
func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nosuch"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := realMain([]string{"--workload", "live", "--trace", "2"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("bad --trace: exit %d, stdout %q", code, out.String())
	}
}

// TestCheckerRejectsPerturbedAnswers shows the checker counts wrong
// answers: a one-ulp score change, a swapped pair and a wrong cost are
// each rejected, and a run against a planted wrong oracle answer
// reports failures and correct=false.
func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	want := []topk.ScoredItem{{Item: 4, Score: 2.5}, {Item: 9, Score: 1.25}, {Item: 1, Score: 1}}
	if err := checkAnswer(slices.Clone(want), want); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	ulp := slices.Clone(want)
	ulp[1].Score = math.Nextafter(ulp[1].Score, 0)
	swapped := slices.Clone(want)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	for name, got := range map[string][]topk.ScoredItem{"ulp": ulp, "swapped": swapped, "short": want[:2]} {
		if checkAnswer(got, want) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	if checkCost(10, 4, 11, 4) == nil || checkCost(10, 4, 10, 6) == nil {
		t.Error("wrong cost accepted")
	}

	for _, w := range []string{"cluster", "stripe"} {
		res := tinyRun(t, w, false, func(in *inputs) {
			for i := range in.oracle {
				in.oracle[i] = slices.Clone(in.oracle[i])
				in.oracle[i][0].Score = math.Nextafter(in.oracle[i][0].Score, math.Inf(1))
			}
		})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a planted wrong oracle: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestSeedDeterminism pins that one seed always produces the same
// inputs, query sequences and update stream, and another seed differs.
func TestSeedDeterminism(t *testing.T) {
	type stream struct {
		pool    []query
		weights [][]float64
		seqs    [][]int
		batches []map[int][]topk.ScoreUpdate
	}
	gen := func(seed int64) stream {
		in, err := newInputs(liveSpec(true), seed, distProtocols, nil)
		if err != nil {
			t.Fatal(err)
		}
		var s stream
		s.pool = in.pool
		for _, f := range in.scorings[1:] {
			s.weights = append(s.weights, scoreFunc(f).(interface{ Weights() []float64 }).Weights())
		}
		for c := range 2 {
			s.seqs = append(s.seqs, opSequence(seed, c, len(in.pool)))
		}
		w := newWriter(seed, in.columns)
		for range 50 {
			_, b := w.next()
			s.batches = append(s.batches, b)
		}
		return s
	}
	a, b, other := gen(11), gen(11), gen(12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed produced two different streams")
	}
	if reflect.DeepEqual(a.weights, other.weights) || reflect.DeepEqual(a.seqs, other.seqs) || reflect.DeepEqual(a.batches, other.batches) {
		t.Fatal("different seeds produced the same stream")
	}
}

// TestWrappersKeepOptionalInterfaces pins that the store probe keeps
// exactly the optional methods of the reader it wraps — SeekScore on
// stripe lists, Validate on in-memory lists — and answers identically,
// and that the owner middleware's writer unwraps to the underlying one,
// so http.ResponseController still reaches its Flusher.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	in, err := newInputs(stripeSpec(true), 1, nil, []core.Algorithm{core.AlgBPA2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.stripe")
	sdb, err := createStripe(in, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	var p storeProbe
	mut, err := list.MutableFromReader(in.db.List(0))
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]list.Reader{"stripe": sdb.List(0), "ram": in.db.List(0), "mutable": mut}
	for name, r := range readers {
		w := p.wrapReader(r)
		for _, iface := range []reflect.Type{reflect.TypeFor[scoreSeeker](), reflect.TypeFor[validator]()} {
			if reflect.TypeOf(r).Implements(iface) != reflect.TypeOf(w).Implements(iface) {
				t.Errorf("%s: wrapper changes whether the reader implements %v", name, iface)
			}
		}
	}
	if _, ok := p.wrapReader(sdb.List(0)).(scoreSeeker); !ok {
		t.Fatal("wrapped stripe list lost SeekScore")
	}

	sdbList, err := sdb.Database()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := p.wrapDatabase(sdbList)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range in.pool {
		opts := core.Options{K: q.k, Scoring: scoreFunc(in.scorings[q.scoring])}
		plain, err1 := core.Run(q.alg, sdbList, opts)
		traced, err2 := core.Run(q.alg, wrapped, opts)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(plain.Items, traced.Items) || plain.Counts != traced.Counts {
			t.Fatalf("pool query %d: wrapped store changed the run", i)
		}
	}
	if p.reads.Load() == 0 {
		t.Fatal("store probe counted no reads")
	}

	rec := httptest.NewRecorder()
	cw := &captureWriter{ResponseWriter: rec}
	if err := http.NewResponseController(cw).Flush(); err != nil || !rec.Flushed {
		t.Fatalf("capture writer hides the Flusher: %v", err)
	}
}

// TestClassify pins how the owner middleware sorts requests.
func TestClassify(t *testing.T) {
	for target, want := range map[string]int{
		"/rpc/sorted?sid=a": classRPC,
		"/rpc/update?sid=a": classUpdate,
		"/session/open":     classControl,
		"/stats?sid=a":      classControl,
		"/filter/set":       classControl,
		"/stats":            classBackground,
		"/healthz":          classBackground,
	} {
		r := httptest.NewRequest(http.MethodGet, target, strings.NewReader(""))
		if got := classify(r); got != want {
			t.Errorf("%s: class %d, want %d", target, got, want)
		}
	}
}
