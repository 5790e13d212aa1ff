package topk

import (
	"context"
	"testing"
)

func TestProgressiveFacade(t *testing.T) {
	db := ballotDB(t)
	it, err := db.ProgressiveCtx(context.Background(), ProgressiveQuery{})
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := db.Oracle(db.N(), Sum())
	if err != nil {
		t.Fatal(err)
	}
	var got []ScoredItem
	for {
		item, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, item)
	}
	if len(got) != len(oracle) {
		t.Fatalf("delivered %d items, want %d", len(got), len(oracle))
	}
	for i := range oracle {
		if got[i].Score != oracle[i].Score {
			t.Errorf("rank %d score = %v, want %v", i+1, got[i].Score, oracle[i].Score)
		}
	}
	if it.Delivered() != db.N() {
		t.Errorf("Delivered = %d", it.Delivered())
	}
	stats := it.Stats()
	if stats.TotalAccesses() == 0 || stats.Cost == 0 || stats.Rounds == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Exhausted iterators stay exhausted.
	if _, ok := it.Next(); ok {
		t.Error("Next returned an item after exhaustion")
	}
}

func TestProgressiveFacadeLazy(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenCorrelated, N: 5000, M: 4, Alpha: 0.001, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	it, err := db.ProgressiveCtx(context.Background(), ProgressiveQuery{Tracker: IntervalTracker})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("iterator ended at %d", i)
		}
	}
	// Ten answers from a strongly correlated database must not require
	// anything near a full scan.
	if total := it.Stats().TotalAccesses(); total > int64(db.N()) {
		t.Errorf("10 answers cost %d accesses over n=%d", total, db.N())
	}
}

func TestProgressiveFacadeValidation(t *testing.T) {
	db := ballotDB(t)
	// badScoring (deliberately non-monotone) is shared with topk_test.go.
	if _, err := db.ProgressiveCtx(context.Background(), ProgressiveQuery{Scoring: badScoring{}, CheckMonotone: true}); err == nil {
		t.Error("non-monotone scoring accepted")
	}
}
