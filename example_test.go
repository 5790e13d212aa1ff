package topk_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"topk"
)

// The simplest possible use: columns in, ranked answers out.
func ExampleDatabase_Exec() {
	db, err := topk.FromColumns([][]float64{
		{30, 11, 26}, // list 1: local scores of items 0, 1, 2
		{21, 28, 14}, // list 2
		{14, 24, 30}, // list 3
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Exec(context.Background(), topk.Query{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range res.Items {
		fmt.Printf("item %d: %.0f\n", it.Item, it.Score)
	}
	// Output:
	// item 2: 70
	// item 0: 65
}

// Named items: one map per list, union of keys, missing scores default.
func ExampleFromNamedScores() {
	db, err := topk.FromNamedScores([]map[string]float64{
		{"nantes": 9, "vienna": 7, "paris": 4},
		{"nantes": 2, "vienna": 8, "paris": 6},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Exec(context.Background(), topk.Query{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f\n", res.Items[0].Name, res.Items[0].Score)
	// Output:
	// vienna: 15
}

// Algorithms can be compared on the same query via Stats.
func ExampleQuery_algorithms() {
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 1000, M: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	ta, err := db.Exec(context.Background(), topk.Query{K: 5, Algorithm: topk.TA})
	if err != nil {
		log.Fatal(err)
	}
	bpa2, err := db.Exec(context.Background(), topk.Query{K: 5, Algorithm: topk.BPA2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same answers:", ta.Items[0] == bpa2.Items[0])
	fmt.Println("BPA2 does fewer accesses:", bpa2.Stats.TotalAccesses() < ta.Stats.TotalAccesses())
	// Output:
	// same answers: true
	// BPA2 does fewer accesses: true
}

// Explain writes the paper-style round walkthrough of the run.
func ExampleDatabase_Explain() {
	db, err := topk.FromColumns([][]float64{
		{30, 11, 26},
		{21, 28, 14},
		{14, 24, 30},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.Explain(context.Background(), topk.Query{K: 1, Algorithm: topk.TA}, os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// # execution trace — TA, k=1, f=sum
	// round  position  threshold  k-th score  stop
	//     1         1         88          70
	//     2         2         71          70
	//     3         3         39          70  STOP
}

// Distributed execution reports simulated network traffic.
func ExampleDatabase_ExecDistributed() {
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 500, M: 3, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.ExecDistributed(context.Background(), topk.Query{K: 3}, topk.DistBPA2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("answers:", len(res.Items))
	fmt.Println("messages even:", res.Stats.Net.Messages%2 == 0)
	// Output:
	// answers: 3
	// messages even: true
}
