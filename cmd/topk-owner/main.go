// Command topk-owner serves one sorted list as a distributed top-k owner
// node over HTTP. A query originator (topk-query -owners, or the topk
// package's DialClusterConfig) drives the paper's protocols — TA, BPA,
// BPA2, TPUT, TPUT-A — against a set of such owners, one process per
// list.
//
// Every owner of a cluster must hold the same database (same file, or
// -gen with the same parameters and seed) and serve a distinct list of
// it; the originator validates both at dial time.
//
// A runnable two-owner example, no files needed:
//
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -addr localhost:9001 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 1 -addr localhost:9002 &
//	topk-query -owners localhost:9001,localhost:9002 -k 10
//
// The same cluster from a database file written by topk-gen:
//
//	topk-gen -kind uniform -n 10000 -m 2 -seed 7 -o db.topk
//	topk-owner -db db.topk -list 0 -addr localhost:9001 &
//	topk-owner -db db.topk -list 1 -addr localhost:9002 &
//	topk-query -owners localhost:9001,localhost:9002 -k 10 -protocol tput
//
// The answers — and the message/payload/round accounting printed by
// topk-query — are identical to the in-process simulation on the same
// data; only the elapsed time is real.
//
// Owner-side protocol state (seen positions, scan cursors, access
// tallies) is keyed by the query session ID carried in every message, so
// any number of originators can query the same owners concurrently; each
// originator's accounting is as if it were alone on the cluster.
//
// A list may be served by several replica owners — same database, same
// -list index, distinct -replica labels — and the originator dials them
// as one topology (replicas |-separated, lists comma-separated),
// routing by policy and failing over mid-query when a replica dies:
//
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -replica a -addr localhost:9001 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 0 -replica b -addr localhost:9101 &
//	topk-owner -gen uniform -n 10000 -m 2 -seed 7 -list 1 -replica a -addr localhost:9002 &
//	topk-query -owners 'localhost:9001|localhost:9101,localhost:9002' -k 10 -policy round-robin
//
// The -replica label is advertised in /stats so operators can tell a
// list's interchangeable owners apart.
package main

import (
	"os"

	"topk/internal/cli"
)

func main() {
	os.Exit(cli.Owner(os.Args[1:], os.Stdout, os.Stderr))
}
