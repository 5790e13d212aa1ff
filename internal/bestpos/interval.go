package bestpos

import "sort"

// Interval is a run-length tracker that is not in the paper: it stores the
// seen positions as maximal runs of consecutive positions, keyed by their
// endpoints in two hash maps. Marking a position looks up the runs ending
// at p-1 and starting at p+1 and merges with them, so every operation is
// O(1) amortized — asymptotically better than both of the paper's
// structures (bit array: O(n/u) amortized; B+tree: O(log u)) — at the cost
// of hash-map constants and O(u) space. It exists as an ablation point for
// the Section 5.2 trade-off discussion.
type Interval struct {
	n     int
	count int
	// endOf[s] = e and startOf[e] = s for every maximal seen run [s, e].
	// Singleton runs have endOf[p] = p and startOf[p] = p.
	endOf   map[int]int
	startOf map[int]int
	// member[p] is present for every seen position; needed because interior
	// positions of a run appear in neither endpoint map.
	member map[int]struct{}
}

// NewInterval returns a run-length tracker for a list of n positions.
func NewInterval(n int) *Interval {
	if n < 0 {
		n = 0
	}
	return &Interval{
		n:       n,
		endOf:   make(map[int]int),
		startOf: make(map[int]int),
		member:  make(map[int]struct{}),
	}
}

// MarkSeen implements Tracker.
func (iv *Interval) MarkSeen(p int) {
	checkPos(p, iv.n)
	if _, ok := iv.member[p]; ok {
		return
	}
	iv.member[p] = struct{}{}
	iv.count++

	start, end := p, p
	// A run ending at p-1 absorbs p on its right.
	if s, ok := iv.startOf[p-1]; ok {
		start = s
		delete(iv.startOf, p-1)
		delete(iv.endOf, s)
	}
	// A run starting at p+1 absorbs p on its left.
	if e, ok := iv.endOf[p+1]; ok {
		end = e
		delete(iv.endOf, p+1)
		delete(iv.startOf, e)
	}
	iv.endOf[start] = end
	iv.startOf[end] = start
}

// Best implements Tracker. The best position is the end of the run that
// starts at position 1, or 0 when position 1 is unseen.
func (iv *Interval) Best() int {
	if e, ok := iv.endOf[1]; ok {
		return e
	}
	return 0
}

// Seen implements Tracker.
func (iv *Interval) Seen(p int) bool {
	checkPos(p, iv.n)
	_, ok := iv.member[p]
	return ok
}

// Count implements Tracker.
func (iv *Interval) Count() int { return iv.count }

// Runs returns the number of maximal seen runs; exported for tests and for
// the tracker ablation, which reports how fragmented the seen set is.
func (iv *Interval) Runs() int { return len(iv.endOf) }

// Ranges returns the maximal seen runs as inclusive [start, end] pairs in
// ascending order — the seen set in range-compressed form.
func (iv *Interval) Ranges() [][2]int {
	out := make([][2]int, 0, len(iv.endOf))
	for s, e := range iv.endOf {
		out = append(out, [2]int{s, e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
