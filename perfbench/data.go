package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"topk"
	"topk/internal/core"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
)

// spec sizes one workload's generated inputs.
type spec struct {
	n, m  int
	alpha float64
	// ks are the query depths of the pool.
	ks []int
}

// query is one entry of the seeded query pool. protocol drives the
// distributed workloads, alg the centralized one.
type query struct {
	protocol topk.Protocol
	alg      core.Algorithm
	k        int
	// scoring indexes inputs.scorings; 0 is Sum.
	scoring int
}

// weightings is the number of seeded WeightedSum functions a pool mixes
// with Sum.
const weightings = 3

// inputs are everything generated from the seed before set-up: the
// score columns, the query pool, and each pool query's expected answer
// and access cost. None of it is timed.
type inputs struct {
	// columns[i][d] is item d's local score in list i.
	columns  [][]float64
	db       *list.Database
	scorings []topk.Scoring
	pool     []query
	oracle   [][]topk.ScoredItem
	// accesses and messages are each pool query's reference cost;
	// messages is 0 for the centralized workload.
	accesses []int64
	messages []int64
	// loopback is each pool query's run time over the in-process
	// loopback transport; distributed workloads only.
	loopback []time.Duration
}

// seeded returns the PRNG of one stream of a run: the same seed and
// stream always give the same draws.
func seeded(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Streams of seeded draws; clients use streamClient+c.
const (
	streamPool uint64 = iota + 1
	streamWriter
	streamClient
)

// dataSeed fixes the generated database of every workload. The run's
// seed draws everything else — the weightings, each client's query
// order and the update stream — so runs on different seeds differ in
// what is asked, not in how deep the data makes every answer.
const dataSeed = 2007

// genColumns generates the correlated database of sp and returns it as
// score columns, from which every copy of the data is then built, so the
// oracle, the reference runs and the system under test share one
// construction and one tie order.
func genColumns(sp spec) ([][]float64, error) {
	db, err := gen.Generate(gen.Spec{
		Kind: gen.Correlated, N: sp.n, M: sp.m, Alpha: sp.alpha, Seed: dataSeed,
	})
	if err != nil {
		return nil, err
	}
	columns := make([][]float64, sp.m)
	for i := range columns {
		l := db.List(i)
		col := make([]float64, sp.n)
		for p := 1; p <= sp.n; p++ {
			e := l.At(p)
			col[e.Item] = e.Score
		}
		columns[i] = col
	}
	return columns, nil
}

// newInputs generates the data and the query pool. protocols lists the
// distributed protocols of the pool, algs the centralized algorithms;
// exactly one of them is non-empty. The pool holds every method at every
// depth once per scoring function — Sum and each seeded WeightedSum —
// so its mix is the same for every seed; TPUT, which supports only Sum,
// runs Sum in each of its slots.
func newInputs(sp spec, seed int64, protocols []topk.Protocol, algs []core.Algorithm) (*inputs, error) {
	columns, err := genColumns(sp)
	if err != nil {
		return nil, err
	}
	db, err := list.FromColumns(columns)
	if err != nil {
		return nil, err
	}
	rng := seeded(seed, streamPool)
	in := &inputs{columns: columns, db: db, scorings: []topk.Scoring{topk.Sum()}}
	for range weightings {
		w := make([]float64, sp.m)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		f, err := topk.WeightedSum(w)
		if err != nil {
			return nil, err
		}
		in.scorings = append(in.scorings, f)
	}
	methods := max(len(protocols), len(algs))
	for i := range methods {
		for _, k := range sp.ks {
			for s := range in.scorings {
				q := query{k: k, scoring: s}
				if len(protocols) > 0 {
					q.protocol = protocols[i]
					if q.protocol == topk.TPUT {
						q.scoring = 0
					}
				} else {
					q.alg = algs[i]
				}
				in.pool = append(in.pool, q)
			}
		}
	}
	maxK := make(map[int]int)
	for _, q := range in.pool {
		maxK[q.scoring] = max(maxK[q.scoring], q.k)
	}
	tops := make(map[int][]topk.ScoredItem)
	for s, k := range maxK {
		tops[s] = oracleTop(columns, in.scorings[s], k)
	}
	for _, q := range in.pool {
		in.oracle = append(in.oracle, tops[q.scoring][:q.k])
	}
	return in, nil
}

// scoreFunc returns the internal view of a public scoring function; the
// two interfaces have the same method set.
func scoreFunc(s topk.Scoring) score.Func { return s.(score.Func) }

// oracleTop ranks every item by brute force — local scores combined with
// f.Combine in list order, ties broken by ascending item — and returns
// the best k.
func oracleTop(columns [][]float64, f topk.Scoring, k int) []topk.ScoredItem {
	n := len(columns[0])
	locals := make([]float64, len(columns))
	all := make([]topk.ScoredItem, n)
	for d := range n {
		for i, col := range columns {
			locals[i] = col[d]
		}
		all[d] = topk.ScoredItem{Item: d, Score: f.Combine(locals)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Item < all[b].Item
	})
	return all[:k:k]
}

// checkAnswer reports the first difference between an answer and the
// oracle's: items and scores must match bit for bit, in order.
func checkAnswer(got, want []topk.ScoredItem) error {
	if len(got) != len(want) {
		return fmt.Errorf("answer has %d items, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Item != want[i].Item || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: got item %d score %v, oracle item %d score %v",
				i+1, got[i].Item, got[i].Score, want[i].Item, want[i].Score)
		}
	}
	return nil
}

// checkCost compares a run's accesses and messages with the reference.
func checkCost(accesses, messages, wantAccesses, wantMessages int64) error {
	if accesses != wantAccesses || messages != wantMessages {
		return fmt.Errorf("cost %d accesses / %d messages, reference %d / %d",
			accesses, messages, wantAccesses, wantMessages)
	}
	return nil
}

// opSequence returns the pool indices client c issues, in order: a run
// of seeded permutations of the pool, so every stretch of a client's
// queries holds the pool's mix. A client that runs longer cycles
// through it.
func opSequence(seed int64, c, poolLen int) []int {
	rng := seeded(seed, streamClient+uint64(c))
	var seq []int
	for len(seq) < 4096 {
		seq = append(seq, rng.Perm(poolLen)...)
	}
	return seq
}
