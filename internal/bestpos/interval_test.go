package bestpos

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestIntervalRunMerging exercises every merge case of MarkSeen: new
// singleton, right-extend, left-extend, and bridging two runs.
func TestIntervalRunMerging(t *testing.T) {
	iv := NewInterval(10)

	iv.MarkSeen(3) // singleton {3}
	if got := iv.Runs(); got != 1 {
		t.Fatalf("after {3}: Runs = %d, want 1", got)
	}
	iv.MarkSeen(5) // {3}, {5}
	if got := iv.Runs(); got != 2 {
		t.Fatalf("after {3,5}: Runs = %d, want 2", got)
	}
	iv.MarkSeen(4) // bridge -> {3..5}
	if got := iv.Runs(); got != 1 {
		t.Fatalf("after bridge: Runs = %d, want 1", got)
	}
	iv.MarkSeen(2) // left-extend -> {2..5}
	iv.MarkSeen(6) // right-extend -> {2..6}
	if got := iv.Runs(); got != 1 {
		t.Fatalf("after extends: Runs = %d, want 1", got)
	}
	if iv.Best() != 0 {
		t.Fatalf("Best = %d with position 1 unseen, want 0", iv.Best())
	}
	iv.MarkSeen(1) // attaches the prefix -> Best jumps to 6
	if iv.Best() != 6 {
		t.Fatalf("Best = %d, want 6", iv.Best())
	}
	if iv.Count() != 6 {
		t.Fatalf("Count = %d, want 6", iv.Count())
	}
}

// TestIntervalRunsInvariant: the runs always equal the maximal
// consecutive blocks of the seen set — in number (Runs) and, in
// ascending order, as inclusive ranges (Ranges).
func TestIntervalRunsInvariant(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%120
		iv := NewInterval(n)
		marked := make([]bool, n+2)
		for i := 0; i < 2*n; i++ {
			p := 1 + rng.Intn(n)
			iv.MarkSeen(p)
			marked[p] = true
			var want [][2]int
			for q := 1; q <= n; q++ {
				if marked[q] && !marked[q-1] {
					want = append(want, [2]int{q, q})
				}
				if marked[q] && !marked[q+1] {
					want[len(want)-1][1] = q
				}
			}
			if iv.Runs() != len(want) {
				t.Logf("Runs = %d, want %d", iv.Runs(), len(want))
				return false
			}
			if got := iv.Ranges(); !reflect.DeepEqual(got, want) {
				t.Logf("Ranges = %v, want %v", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIntervalDescendingMarks marks n..1; every mark extends the single
// suffix run until position 1 completes the prefix.
func TestIntervalDescendingMarks(t *testing.T) {
	const n = 40
	iv := NewInterval(n)
	for p := n; p >= 2; p-- {
		iv.MarkSeen(p)
		if iv.Runs() != 1 {
			t.Fatalf("marking %d: Runs = %d, want 1", p, iv.Runs())
		}
		if iv.Best() != 0 {
			t.Fatalf("marking %d: Best = %d, want 0", p, iv.Best())
		}
	}
	iv.MarkSeen(1)
	if iv.Best() != n {
		t.Fatalf("Best = %d, want %d", iv.Best(), n)
	}
}
