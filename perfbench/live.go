package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"topk"
	"topk/internal/live"
)

// liveSpec sizes the live workload.
func liveSpec(tiny bool) spec {
	if tiny {
		return spec{n: 300, m: 3, alpha: 0.01, ks: []int{5, 10}}
	}
	return spec{n: 5_000, m: 3, alpha: 0.01, ks: []int{5, 10, 20}}
}

// standingKs are the depths of the standing DistBPA2 queries.
var standingKs = []int{5, 10, 15, 20}

// The update stream: each batch moves batchItems items at every owner;
// an item is one of the current top topItems items with probability
// topShare and a deeper item otherwise.
const (
	batchItems = 8
	topItems   = 50
	topShare   = 0.05
	feed       = "perfbench"
	// deltaScale bounds how far an update moves a score from its
	// generated value, relative to that value.
	deltaScale = 0.01
)

// runLive is the read-write workload: a writer applies update batches
// through the live coordinator while a reader issues ad-hoc queries on
// the same mutable owners.
func runLive(cfg config) (*result, error) {
	in, err := newInputs(liveSpec(cfg.tiny), cfg.seed, distProtocols, nil)
	if err != nil {
		return nil, err
	}
	// The loopback references time each read without a wire. Reads race
	// the writer, so their answers are checked for form only; the read
	// made once the writer has stopped is checked exactly.
	if _, err := in.referenceDist(); err != nil {
		return nil, err
	}
	return measure(cfg, workload{
		primary: kindUpdate,
		warmup:  cfg.warmup(),
		setup: func(p *probes) (*system, error) {
			ctx := context.Background()
			own, err := startOwners(in.db, 1, true, p)
			if err != nil {
				return nil, err
			}
			c, err := topk.DialClusterConfig(ctx, topk.ClusterConfig{Topology: own.topology()})
			if err != nil {
				own.close()
				return nil, err
			}
			co, err := live.New(c)
			for _, k := range standingKs {
				if err != nil {
					break
				}
				_, err = co.Register(ctx, standingName(k), topk.Query{K: k}, topk.DistBPA2)
			}
			if err != nil {
				c.Close()
				own.close()
				return nil, err
			}
			w := newWriter(cfg.seed, in.columns)
			return &system{
				live: co,
				clients: []clientFunc{
					w.client(co, p),
					queryClient(in, c, opSequence(cfg.seed, 1, len(in.pool)), p, false),
				},
				check: func() []error {
					errs := own.check(c)
					errs = append(errs, w.checkStanding(co)...)
					return append(errs, w.checkRead(in, c))
				},
				close: func() {
					co.Close(ctx)
					c.Close()
					own.close()
				},
			}, nil
		},
	})
}

func standingName(k int) string { return fmt.Sprintf("top%d", k) }

// writer generates the seeded update stream and mirrors every delta it
// sends, so the expected state after the run is known exactly.
type writer struct {
	rng *rand.Rand
	// base[i][d] is item d's generated score at owner i.
	base [][]float64
	// mirror[i][d] is item d's score at owner i after every batch sent.
	mirror [][]float64
	seq    uint64
	isTop  []bool
	top    []int
}

func newWriter(seed int64, columns [][]float64) *writer {
	w := &writer{rng: seeded(seed, streamWriter), base: columns, isTop: make([]bool, len(columns[0]))}
	for _, col := range columns {
		w.mirror = append(w.mirror, slices.Clone(col))
	}
	return w
}

// next returns the next batch and its sequence number. Each update moves
// an item's score to a uniform draw within deltaScale of its generated
// score, so the scores stay positive, as TPUT requires, and the stream
// is stationary: the ranking wanders around the generated one instead of
// drifting away from it as a run goes on.
func (w *writer) next() (uint64, map[int][]topk.ScoreUpdate) {
	w.seq++
	w.rankTop()
	n := len(w.isTop)
	batches := make(map[int][]topk.ScoreUpdate, len(w.mirror))
	for range batchItems {
		var d int
		if w.rng.Float64() < topShare {
			d = w.top[w.rng.IntN(len(w.top))]
		} else {
			for d = w.rng.IntN(n); w.isTop[d]; d = w.rng.IntN(n) {
			}
		}
		for owner, col := range w.mirror {
			delta := w.base[owner][d]*(1+deltaScale*(2*w.rng.Float64()-1)) - col[d]
			col[d] += delta
			batches[owner] = append(batches[owner], topk.ScoreUpdate{Item: int32(d), Delta: delta})
		}
	}
	return w.seq, batches
}

// rankTop recomputes the topItems items of highest summed score.
func (w *writer) rankTop() {
	type scored struct {
		item  int
		score float64
	}
	best := make([]scored, 0, topItems+1) // ascending by score
	for d := range w.isTop {
		w.isTop[d] = false
		var s float64
		for _, col := range w.mirror {
			s += col[d]
		}
		if len(best) == topItems && s <= best[0].score {
			continue
		}
		i, _ := slices.BinarySearchFunc(best, s, func(e scored, t float64) int {
			if e.score < t {
				return -1
			}
			return 1
		})
		best = slices.Insert(best, i, scored{d, s})
		if len(best) > topItems {
			best = best[1:]
		}
	}
	w.top = w.top[:0]
	for _, e := range best {
		w.top = append(w.top, e.item)
		w.isTop[e.item] = true
	}
}

// client applies the writer's batches through the coordinator.
func (w *writer) client(co *live.Coordinator, p *probes) clientFunc {
	return func(int) (outcome, error) {
		seq, batches := w.next()
		start := time.Now()
		res, err := co.Apply(context.Background(), feed, seq, batches)
		lat := time.Since(start)
		if err != nil {
			return outcome{}, err
		}
		if !res.Applied {
			return outcome{}, fmt.Errorf("batch %d acknowledged as a duplicate", seq)
		}
		if p != nil {
			p.noteUpdate(len(res.Reevaluated) > 0, lat)
		}
		return outcome{kind: kindUpdate, lat: lat}, nil
	}
}

// checkStanding compares every standing ranking, once the writer has
// stopped, with the oracle over the mirrored scores.
func (w *writer) checkStanding(co *live.Coordinator) []error {
	var errs []error
	for _, k := range standingKs {
		s, ok := co.Query(standingName(k))
		if !ok {
			errs = append(errs, fmt.Errorf("standing query %s is gone", standingName(k)))
			continue
		}
		got, _ := s.Ranking()
		if err := checkAnswer(got, oracleTop(w.mirror, topk.Sum(), k)); err != nil {
			errs = append(errs, fmt.Errorf("standing query %s: %w", standingName(k), err))
			continue
		}
		errs = append(errs, nil)
	}
	return errs
}

// checkRead runs one ad-hoc query once the writer has stopped and
// compares it with the oracle and the loopback reference over the
// mirrored scores.
func (w *writer) checkRead(in *inputs, c *topk.Cluster) error {
	q := in.pool[0]
	res, err := c.Exec(context.Background(), in.topkQuery(q), q.protocol)
	if err != nil {
		return fmt.Errorf("quiescent read: %w", err)
	}
	if err := checkAnswer(res.Items, oracleTop(w.mirror, in.scorings[q.scoring], q.k)); err != nil {
		return fmt.Errorf("quiescent read: %w", err)
	}
	db, err := topk.FromColumns(w.mirror)
	if err != nil {
		return err
	}
	ref, err := db.ExecDistributed(context.Background(), in.topkQuery(q), q.protocol)
	if err != nil {
		return fmt.Errorf("quiescent read reference: %w", err)
	}
	if err := checkCost(res.Stats.Net.TotalAccesses, res.Stats.Net.Messages, ref.Stats.Net.TotalAccesses, ref.Stats.Net.Messages); err != nil {
		return fmt.Errorf("quiescent read: %w", err)
	}
	return nil
}
