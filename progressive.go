package topk

import (
	"context"
	"fmt"
	"math/rand"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/core"
	"topk/internal/score"
)

// ProgressiveQuery configures a progressive enumeration: top-k retrieval
// without fixing k, one certified answer per Next call.
type ProgressiveQuery struct {
	// Scoring is the monotone overall-score function; defaults to Sum.
	Scoring Scoring
	// Tracker selects the best-position structure.
	Tracker Tracker
	// CheckMonotone samples the scoring function before starting and
	// rejects detectable monotonicity violations.
	CheckMonotone bool
}

// ProgressiveIterator enumerates a database in rank order using BPA2's
// probing: answer j+1 is certified (its score beats everything unseen)
// before it is returned, and no list position is ever read twice across
// the whole enumeration. Scores arrive in non-increasing order; among
// equal scores the order may differ from Exec's deterministic tie-break.
//
// Use it when k is not known upfront — "show results until the user stops
// scrolling" — instead of re-running Exec with growing k. Not safe for
// concurrent use.
type ProgressiveIterator struct {
	db    *Database
	inner *core.Progressive
}

// ProgressiveCtx starts a progressive enumeration bounded by ctx — the
// any-time query shape: answers stream out rank by rank until the caller
// stops asking or the context is canceled or reaches its deadline, at
// which point Next returns false and Err reports the context error. The
// context is checked before every probe round, so a deadline binds at
// access granularity.
func (db *Database) ProgressiveCtx(ctx context.Context, q ProgressiveQuery) (*ProgressiveIterator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scoring := q.Scoring
	if scoring == nil {
		scoring = Sum()
	}
	f := adaptScoring(scoring)
	if q.CheckMonotone {
		rng := rand.New(rand.NewSource(1))
		if !score.CheckMonotone(f, db.M(), 512, rng) {
			return nil, fmt.Errorf("topk: scoring function %q is not monotone", scoring.Name())
		}
	}
	inner, err := core.NewProgressive(access.NewProbe(db.db), core.ProgressiveOptions{
		Ctx:     ctx,
		Scoring: f,
		Tracker: bestpos.Kind(q.Tracker),
	})
	if err != nil {
		return nil, err
	}
	return &ProgressiveIterator{db: db, inner: inner}, nil
}

// Next returns the next answer in rank order; ok is false after all n
// items have been delivered, or once the enumeration's context fired —
// Err tells the two apart.
func (it *ProgressiveIterator) Next() (ScoredItem, bool) {
	item, ok := it.inner.Next()
	if !ok {
		return ScoredItem{}, false
	}
	return ScoredItem{
		Item:  Item(item.Item),
		Name:  it.db.NameOf(Item(item.Item)),
		Score: item.Score,
	}, true
}

// Err returns the context error that ended the enumeration early, or
// nil if it is still live (or ran to natural exhaustion).
func (it *ProgressiveIterator) Err() error { return it.inner.Err() }

// Delivered returns how many answers have been returned so far.
func (it *ProgressiveIterator) Delivered() int { return it.inner.Delivered() }

// Stats returns the access profile spent so far; Duration is zero (wall
// time of an interactive enumeration belongs to the caller).
func (it *ProgressiveIterator) Stats() Stats {
	counts := it.inner.Counts()
	return Stats{
		SortedAccesses: counts.Sorted,
		RandomAccesses: counts.Random,
		DirectAccesses: counts.Direct,
		Cost:           access.DefaultCostModel(it.db.N()).Cost(counts),
		Rounds:         it.inner.Rounds(),
	}
}
