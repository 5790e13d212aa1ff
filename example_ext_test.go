package topk_test

import (
	"context"
	"fmt"
	"log"

	"topk"
)

// Progressive enumeration: retrieve answers rank by rank without fixing
// k upfront. Each answer is certified against everything unseen before
// it is returned.
func ExampleDatabase_ProgressiveCtx() {
	db, err := topk.FromColumns([][]float64{
		{30, 11, 26, 28, 17},
		{21, 28, 14, 13, 24},
		{14, 24, 30, 25, 29},
	})
	if err != nil {
		log.Fatal(err)
	}
	it, err := db.ProgressiveCtx(context.Background(), topk.ProgressiveQuery{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		item, ok := it.Next()
		if !ok {
			break
		}
		fmt.Printf("rank %d: item %d score %.0f\n", i+1, item.Item, item.Score)
	}
	// Output:
	// rank 1: item 2 score 70
	// rank 2: item 4 score 70
	// rank 3: item 3 score 66
}

// NRA answers with sorted accesses only: the returned item set is a
// correct top-k set, but the scores may be lower bounds (Inexact).
func ExampleQuery_nra() {
	db, err := topk.FromColumns([][]float64{
		{30, 11, 26, 28, 17},
		{21, 28, 14, 13, 24},
		{14, 24, 30, 25, 29},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Exec(context.Background(), topk.Query{K: 2, Algorithm: topk.NRA})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("random accesses:", res.Stats.RandomAccesses)
	for _, it := range res.Items {
		fmt.Printf("item %d score >= %.0f\n", it.Item, it.Score)
	}
	// Output:
	// random accesses: 0
	// item 2 score >= 70
	// item 4 score >= 70
}

// A continuous top-k monitor over a sliding window, reporting how the
// ranking changes as observations arrive and expire.
func ExampleNewMonitor() {
	mon, err := topk.NewMonitor(topk.MonitorConfig{Sources: 2, K: 2, WindowBuckets: 2})
	if err != nil {
		log.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	check(mon.Observe(0, "/home", 40))
	check(mon.Observe(1, "/home", 12))
	check(mon.Observe(0, "/search", 30))
	check(mon.Observe(1, "/search", 25))
	snap, err := mon.TopK()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range snap.Items {
		fmt.Printf("%s %.0f\n", e.Key, e.Score)
	}

	// One bucket later /docs spikes; two buckets later the old traffic
	// has expired entirely.
	mon.Advance()
	check(mon.Observe(0, "/docs", 99))
	mon.Advance()
	snap, err = mon.TopK()
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range snap.Changes {
		if c.Kind == topk.ChangeEntered {
			fmt.Printf("%s entered at rank %d\n", c.Key, c.Rank)
		}
	}
	// Output:
	// /search 55
	// /home 52
	// /docs entered at rank 1
}

// ParseAlgorithm resolves user-supplied algorithm names, as the CLI
// tools and the HTTP API do.
func ExampleParseAlgorithm() {
	for _, name := range []string{"bpa2", "TA", "nra"} {
		alg, err := topk.ParseAlgorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(alg)
	}
	// Output:
	// BPA2
	// TA
	// NRA
}
