// Netmonitor: the paper's closing scenario (Section 8). "Consider a
// network monitoring application that monitors the activities of the
// users of some specified IP locations. For each location, the
// application maintains a list of the accessed URLs ranked by their
// frequency of access. In this application, an interesting query for the
// network administrator is: what are the top-k popular URLs?"
//
// Each monitor is a list owner; the administrator's console is the query
// originator. This example runs the distributed protocols over the
// simulated network and reports what would actually travel: messages and
// payload. BPA2 keeps the position bookkeeping at the monitors, which is
// why it ships so much less than BPA.
//
// Run with: go run ./examples/netmonitor
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"topk"
)

const (
	numURLs     = 10_000
	numMonitors = 6
	topN        = 10
)

func main() {
	ctx := context.Background()
	db := buildMonitorLists()
	fmt.Printf("monitors: %d, distinct URLs: %d\n\n", db.M(), db.N())

	res, err := db.ExecDistributed(ctx, topk.Query{K: topN}, topk.DistBPA2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d URLs by total access frequency (dist-bpa2):\n", topN)
	for i, it := range res.Items {
		fmt.Printf("  %2d. %-28s total=%.0f\n", i+1, it.Name, it.Score)
	}

	fmt.Println("\nsimulated network traffic per protocol (same query):")
	fmt.Printf("  %-10s  %10s  %10s  %8s\n", "protocol", "messages", "payload", "rounds")
	for _, p := range topk.Protocols() {
		r, err := db.ExecDistributed(ctx, topk.Query{K: topN}, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s  %10d  %10d  %8d\n",
			p, r.Stats.Net.Messages, r.Stats.Net.Payload, r.Stats.Net.Rounds)
	}
	fmt.Println("\nTPUT batches whole phases into single round trips; the BPA2")
	fmt.Println("protocol wins on per-access traffic because every probe lands on")
	fmt.Println("an unseen position and positions never travel to the console.")
}

// buildMonitorLists synthesizes per-monitor URL access frequencies.
// URL popularity is Zipf-distributed globally (the paper cites the Zipf
// law for exactly this kind of ranked frequency data) with per-monitor
// variation.
func buildMonitorLists() *topk.Database {
	rng := rand.New(rand.NewSource(8))
	global := make([]float64, numURLs)
	for u := range global {
		global[u] = 1 / math.Pow(float64(u+1), 0.8)
	}
	lists := make([]map[string]float64, numMonitors)
	for mi := range lists {
		l := make(map[string]float64, numURLs)
		for u := 0; u < numURLs; u++ {
			name := fmt.Sprintf("url-%05d.example.com", u)
			// Per-monitor traffic: global popularity scaled by local
			// interest, as raw (non-negative) access counts.
			local := global[u] * (0.5 + rng.Float64())
			l[name] = math.Round(local * 100_000)
		}
		lists[mi] = l
	}
	db, err := topk.FromNamedScores(lists, 0)
	if err != nil {
		log.Fatal(err)
	}
	return db
}
