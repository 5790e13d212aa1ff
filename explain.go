package topk

import (
	"context"
	"fmt"
	"io"

	"topk/internal/core"
	"topk/internal/trace"
)

// Round is a snapshot of a threshold algorithm's state after one access
// round — the rows of the paper's worked examples. Delivered through
// Query.OnRound.
type Round struct {
	// Round is the 1-based round number.
	Round int
	// Position is the sorted-access depth (TA/BPA) or the smallest best
	// position (BPA2) after the round.
	Position int
	// Threshold is the stopping threshold after the round: δ for TA, λ
	// for BPA/BPA2.
	Threshold float64
	// KthScore is the k-th best overall score seen so far; valid when
	// YFull.
	KthScore float64
	// YFull reports whether k items have been seen.
	YFull bool
	// BestPositions is the per-list best position (BPA/BPA2; nil for TA).
	BestPositions []int
	// Stopped reports whether the stopping condition held.
	Stopped bool
}

// onRoundAdapter bridges a public callback to the internal observer.
type onRoundAdapter struct {
	fn func(Round)
}

func (a onRoundAdapter) Round(info core.RoundInfo) {
	a.fn(Round{
		Round:         info.Round,
		Position:      info.Position,
		Threshold:     info.Threshold,
		KthScore:      info.KthScore,
		YFull:         info.YFull,
		BestPositions: info.BestPositions,
		Stopped:       info.Stopped,
	})
}

// Explain runs the query while writing a round-by-round walkthrough — the
// format of the paper's Examples 2 and 3 — to w, and returns the result.
// Only the threshold algorithms (TA, BPA, BPA2) produce rounds; for FA
// and Naive the trace is empty. ctx cancels or bounds the run exactly as
// for Exec; a cancelled run writes nothing to w.
func (db *Database) Explain(ctx context.Context, q Query, w io.Writer) (*Result, error) {
	var log trace.Log
	q.onRoundObserver = &log
	res, err := db.Exec(ctx, q)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("%s, k=%d, f=%s", q.Algorithm, q.K, scoringName(q.Scoring))
	if err := log.Render(w, title); err != nil {
		return nil, err
	}
	return res, nil
}

func scoringName(s Scoring) string {
	if s == nil {
		return Sum().Name()
	}
	return s.Name()
}

// WithOnRound returns a copy of the query that calls fn after every round
// of TA, BPA, or BPA2. The callback must not retain the BestPositions
// slice. Useful for progress reporting and for teaching material; the
// paper's example tables are exactly this stream.
func (q Query) WithOnRound(fn func(Round)) Query {
	q.onRoundObserver = onRoundAdapter{fn: fn}
	return q
}
