package dist

import (
	"context"

	"topk/internal/list"
	"topk/internal/transport"
)

// TA runs the Threshold Algorithm over the deterministic in-process
// transport; see TAOver.
func TA(db *list.Database, opts Options) (*Result, error) {
	t, err := loopback(db)
	if err != nil {
		return nil, err
	}
	return TAOver(context.Background(), t, opts)
}

// TAOver runs the Threshold Algorithm over the given transport: the
// originator walks the m lists position by position through
// sorted-access exchanges, and every item seen triggers (m-1) lookup
// exchanges for its missing local scores — the paper-faithful,
// non-memoized accounting of Section 3.2, so the traffic is two messages
// per access. The stopping threshold δ is computed at the originator
// from the last scores seen under sorted access; no extra messages are
// needed for it.
//
// Each round fans out in two waves a concurrent backend overlaps across
// owners: the m sorted accesses at the current depth, then the m·(m-1)
// lookups they trigger (the lookups depend on the sorted responses, so
// the waves themselves are ordered). The lookup wave is round-coalesced:
// each owner's m-1 lookups travel as one batched wire exchange, so a
// round costs two round-trips — not m — on a latency-bound backend,
// while Net keeps charging the logical messages.
func TAOver(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m, n := r.m, r.n

	last := make([]float64, m)
	locals := make([]float64, m)
	entries := make([]list.Entry, m)
	res := &Result{}
	for pos := 1; pos <= n; pos++ {
		r.nw.net.Rounds++
		// Wave 1: the sorted access of every list at this depth.
		sortedCalls := make([]transport.Call, m)
		for i := range sortedCalls {
			sortedCalls[i] = transport.Call{Owner: i, Req: transport.SortedReq{Pos: pos}}
		}
		sortedResps, err := r.doAll(sortedCalls)
		if err != nil {
			return nil, err
		}
		for i, resp := range sortedResps {
			sr, err := as[transport.SortedResp](resp)
			if err != nil {
				return nil, err
			}
			entries[i] = sr.Entry
			last[i] = sr.Entry.Score
		}
		// Wave 2: resolve every seen item at the other owners.
		lookupCalls := make([]transport.Call, 0, m*(m-1))
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				lookupCalls = append(lookupCalls, transport.Call{Owner: j, Req: transport.LookupReq{Item: entries[i].Item}})
			}
		}
		lookupResps, err := r.doAll(lookupCalls)
		if err != nil {
			return nil, err
		}
		idx := 0
		for i := 0; i < m; i++ {
			locals[i] = entries[i].Score
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				lr, err := as[transport.LookupResp](lookupResps[idx])
				if err != nil {
					return nil, err
				}
				idx++
				locals[j] = lr.Score
			}
			r.y.Add(entries[i].Item, r.f.Combine(locals))
		}
		delta := r.f.Combine(last)
		res.Threshold = delta
		res.StopPosition = pos
		if r.y.AtLeast(delta) {
			break
		}
		// At pos == n every kept score is >= δ by monotonicity, so the
		// loop cannot fall through with a partial answer while k <= n.
	}
	return r.finish(res, nil)
}
