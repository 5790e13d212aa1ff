package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"topk"
	"topk/internal/core"
	"topk/internal/rank"
	"topk/internal/store/stripe"
)

// stripeSpec sizes the stripe workload at the paper's defaults.
func stripeSpec(tiny bool) spec {
	if tiny {
		return spec{n: 2_000, m: 4, alpha: 0.1, ks: []int{10, 20, 50}}
	}
	return spec{n: 100_000, m: 8, alpha: 0.1, ks: []int{10, 20, 50}}
}

// stripeCacheBytes is the stripe-cache budget: smaller than the blocks
// the query mix touches, so the cache both hits and evicts.
func stripeCacheBytes(tiny bool) int64 {
	if tiny {
		return 16 << 10
	}
	return 4 << 20
}

// runStripe is the centralized workload: two closed-loop clients run
// BPA2, BPA and TA over a disk-backed stripe database.
func runStripe(cfg config) (*result, error) {
	in, err := newInputs(stripeSpec(cfg.tiny), cfg.seed, nil, []core.Algorithm{core.AlgBPA2, core.AlgBPA, core.AlgTA})
	if err != nil {
		return nil, err
	}
	refErrs, err := in.referenceCore()
	if err != nil {
		return nil, err
	}
	if cfg.tamper != nil {
		cfg.tamper(in)
	}
	if err := os.MkdirAll(cfg.dir(), 0o755); err != nil {
		return nil, err
	}
	return measure(cfg, workload{
		primary: kindQuery,
		warmup:  cfg.warmup(),
		setup: func(p *probes) (*system, error) {
			dir, err := os.MkdirTemp(cfg.dir(), "stripe-")
			if err != nil {
				return nil, err
			}
			path := filepath.Join(dir, "db.stripe")
			sdb, err := createStripe(in, path, stripeCacheBytes(cfg.tiny))
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			qdb, err := sdb.Database()
			if err == nil && p != nil {
				qdb, err = p.store.wrapDatabase(qdb)
			}
			if err != nil {
				sdb.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			sys := &system{
				stripeDB: sdb,
				check: func() []error {
					var err error
					if st := sdb.CacheStats(); st.MaxResident > st.Budget {
						err = fmt.Errorf("stripe cache held %d bytes, budget %d", st.MaxResident, st.Budget)
					}
					return append(refErrs, err)
				},
				close: func() {
					sdb.Close()
					os.RemoveAll(dir)
				},
			}
			for cl := range 2 {
				seq := opSequence(cfg.seed, cl, len(in.pool))
				sys.clients = append(sys.clients, func(j int) (outcome, error) {
					i := seq[j%len(seq)]
					q := in.pool[i]
					start := time.Now()
					res, err := core.Run(q.alg, qdb, core.Options{K: q.k, Scoring: scoreFunc(in.scorings[q.scoring])})
					lat := time.Since(start)
					if err != nil {
						return outcome{}, err
					}
					if p != nil {
						p.noteCore(res.Rounds, lat)
					}
					out := outcome{kind: kindQuery, lat: lat, accesses: res.Counts.Total()}
					if err := checkAnswer(publicItems(res.Items), in.oracle[i]); err != nil {
						return out, fmt.Errorf("%v k=%d: %w", q.alg, q.k, err)
					}
					return out, checkCost(res.Counts.Total(), 0, in.accesses[i], 0)
				})
			}
			return sys, nil
		},
	})
}

// createStripe writes the workload's database as a stripe file and
// opens it with the given cache budget.
func createStripe(in *inputs, path string, cacheBytes int64) (*stripe.DB, error) {
	if err := stripe.Create(path, in.db, stripe.WriteOptions{}); err != nil {
		return nil, err
	}
	return stripe.Open(path, stripe.Options{CacheBytes: cacheBytes})
}

// referenceCore runs every pool query over the in-memory lists and
// records its accesses as the reference the stripe run must reproduce.
func (in *inputs) referenceCore() ([]error, error) {
	var failed []error
	for i, q := range in.pool {
		res, err := core.Run(q.alg, in.db, core.Options{K: q.k, Scoring: scoreFunc(in.scorings[q.scoring])})
		if err != nil {
			return nil, fmt.Errorf("in-memory reference of pool query %d: %w", i, err)
		}
		if err := checkAnswer(publicItems(res.Items), in.oracle[i]); err != nil {
			failed = append(failed, fmt.Errorf("in-memory reference of pool query %d: %w", i, err))
		}
		in.accesses = append(in.accesses, res.Counts.Total())
		in.messages = append(in.messages, 0)
	}
	return failed, nil
}

// publicItems converts core answers to the public type the oracle uses.
func publicItems(items []rank.ScoredItem) []topk.ScoredItem {
	out := make([]topk.ScoredItem, len(items))
	for i, it := range items {
		out[i] = topk.ScoredItem{Item: int(it.Item), Score: it.Score}
	}
	return out
}
