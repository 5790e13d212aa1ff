package transport

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"topk/internal/gen"
	"topk/internal/store/stripe"
)

// TestAboveSeekScoreParity pins the stripe fast path of the above scan:
// a stripe-backed owner answers phase-2 threshold scans through
// List.SeekScore (a fence binary search instead of a positional walk),
// and every response — entries, nil-vs-empty shape, and the session
// depth the next call resumes from — must be bit-identical to the plain
// positional loop a RAM-backed owner runs. The charged-read rule is the
// subtle part: even when the whole remaining tail is below T, the plain
// loop spends exactly one sorted access discovering that, so the seek
// path must perform (and charge) that read too.
func TestAboveSeekScoreParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 1, Seed: 5})
	raw, err := stripe.WriteBytes(db, stripe.WriteOptions{StripeCap: 16, PosPageCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := stripe.OpenReader(bytes.NewReader(raw), int64(len(raw)), stripe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	disk, err := sdb.Database()
	if err != nil {
		t.Fatal(err)
	}

	// The comparison is only meaningful if the two owners genuinely take
	// different paths.
	if _, ok := disk.List(0).(scoreSeeker); !ok {
		t.Fatal("stripe list does not implement SeekScore; fast path untested")
	}
	if _, ok := db.List(0).(scoreSeeker); ok {
		t.Fatal("RAM list implements SeekScore; no plain loop to compare against")
	}

	ram, err := NewOwner(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	seek, err := NewOwner(disk, 0)
	if err != nil {
		t.Fatal(err)
	}

	top := db.List(0).At(1).Score
	mid := db.List(0).At(100).Score
	scenarios := []struct {
		name string
		reqs []Request
	}{
		{"full-scan", []Request{AboveReq{T: -1}}},
		{"nothing-above", []Request{AboveReq{T: top + 1}}},
		{"nothing-above-twice", []Request{AboveReq{T: top + 1}, AboveReq{T: top + 1}}},
		{"descending-thresholds", []Request{AboveReq{T: mid}, AboveReq{T: mid / 2}, AboveReq{T: 0}}},
		{"ascending-thresholds", []Request{AboveReq{T: mid}, AboveReq{T: top}, AboveReq{T: mid}}},
		{"after-sorted-reads", []Request{
			SortedReq{Pos: 1}, SortedReq{Pos: 2}, SortedReq{Pos: 3},
			AboveReq{T: mid}, AboveReq{T: top + 1}, AboveReq{T: -1},
		}},
		{"threshold-at-last-score", []Request{AboveReq{T: db.List(0).At(200).Score}}},
		{"threshold-at-first-score", []Request{AboveReq{T: top}}},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sid := fmt.Sprintf("parity-%d", i)
			for j, req := range sc.reqs {
				want, werr := ram.HandleContext(context.Background(), sid, req)
				got, gerr := seek.HandleContext(context.Background(), sid, req)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("req %d: errors diverge: ram %v, stripe %v", j, werr, gerr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("req %d (%#v): responses diverge:\n stripe %#v\n ram    %#v", j, req, got, want)
				}
			}
		})
	}
}
