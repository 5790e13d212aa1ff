package topk

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestIntegrationGenerateSaveLoadQuery exercises the full public surface
// end to end: generate a workload, persist it twice (binary and CSV),
// reload both, and verify that every algorithm, every distributed
// protocol, the DHT overlay, and the explain trace agree on the answers.
func TestIntegrationGenerateSaveLoadQuery(t *testing.T) {
	orig, err := Generate(GenSpec{Kind: GenCorrelated, N: 800, M: 5, Alpha: 0.05, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	binPath := filepath.Join(dir, "db.topk")
	if err := orig.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := orig.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}

	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}

	const k = 12
	want, err := orig.Oracle(k, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, db := range map[string]*Database{"original": orig, "binary": fromBin, "csv": fromCSV} {
		if db.N() != orig.N() || db.M() != orig.M() {
			t.Fatalf("%s: dimensions changed", name)
		}
		// Centralized: every algorithm.
		for _, alg := range Algorithms() {
			res, err := db.Exec(context.Background(), Query{K: k, Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			for i := range want {
				if res.Items[i].Score != want[i].Score {
					t.Fatalf("%s/%v: answer %d score %v, want %v",
						name, alg, i, res.Items[i].Score, want[i].Score)
				}
			}
		}
		// Distributed: every protocol.
		for _, p := range Protocols() {
			res, err := db.ExecDistributed(context.Background(), Query{K: k}, p)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, p, err)
			}
			for i := range want {
				if res.Items[i].Score != want[i].Score {
					t.Fatalf("%s/%v: answer %d wrong", name, p, i)
				}
			}
		}
		// Overlay.
		dres, err := db.RunDHT(Query{K: k}, DistBPA2, 256, 7, false)
		if err != nil {
			t.Fatalf("%s/dht: %v", name, err)
		}
		if dres.Items[0].Score != want[0].Score {
			t.Fatalf("%s/dht: top answer wrong", name)
		}
	}

	// Explain produces a trace whose final round is the stop round.
	var traceBuf bytes.Buffer
	res, err := orig.Explain(context.Background(), Query{K: k, Algorithm: BPA}, &traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(traceBuf.String(), "STOP") {
		t.Error("trace missing STOP marker")
	}
	if res.Stats.StopPosition < 1 {
		t.Errorf("stop position = %d", res.Stats.StopPosition)
	}
}

// TestIntegrationAccessOrdering verifies the paper's headline cost
// ordering end to end on a larger independent workload through the
// public API: accesses(BPA2) < accesses(TA), cost(BPA) <= cost(TA),
// and all approximate runs cost no more than exact ones.
func TestIntegrationAccessOrdering(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 5_000, M: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const k = 20
	ta, err := db.Exec(context.Background(), Query{K: k, Algorithm: TA})
	if err != nil {
		t.Fatal(err)
	}
	bpa, err := db.Exec(context.Background(), Query{K: k, Algorithm: BPA})
	if err != nil {
		t.Fatal(err)
	}
	bpa2, err := db.Exec(context.Background(), Query{K: k, Algorithm: BPA2})
	if err != nil {
		t.Fatal(err)
	}
	if bpa.Stats.Cost > ta.Stats.Cost {
		t.Errorf("BPA cost %v above TA %v (Theorem 2)", bpa.Stats.Cost, ta.Stats.Cost)
	}
	if bpa2.Stats.TotalAccesses() >= ta.Stats.TotalAccesses() {
		t.Errorf("BPA2 accesses %d not below TA %d",
			bpa2.Stats.TotalAccesses(), ta.Stats.TotalAccesses())
	}
	approx, err := db.Exec(context.Background(), Query{K: k, Algorithm: BPA2, Approximation: 2})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats.TotalAccesses() > bpa2.Stats.TotalAccesses() {
		t.Errorf("θ=2 run did more accesses than exact")
	}
}
