package dist

import (
	"context"

	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/transport"
)

// BPA runs the Best Position Algorithm over the deterministic in-process
// transport; see BPAOver.
func BPA(db *list.Database, opts Options) (*Result, error) {
	t, err := loopback(db)
	if err != nil {
		return nil, err
	}
	return BPAOver(context.Background(), t, opts)
}

// BPAOver runs the Best Position Algorithm (Section 4) over the given
// transport with the bookkeeping at the query originator — the design
// the paper's Section 5 improves on. The exchange pattern is TA's (two
// messages per access, the same two fan-out waves per round), but every
// lookup response additionally ships the item's position in the owner's
// list, because the originator maintains the seen-position trackers and
// best positions of all m lists itself. That position traffic is BPA's
// distributed overhead: compare Net.Payload against TA's, and against
// BPA2's, where positions never travel.
//
// Like TA's, the lookup wave is round-coalesced: each owner's m-1
// position-carrying lookups ship as one batched wire exchange per round.
//
// The originator also caches every (position, score) pair it has been
// sent, so the best-position scores behind the stopping threshold
// λ = f(s1(bp1), ..., sm(bpm)) are read from originator memory, not from
// the lists: a score at a best position was necessarily carried by some
// earlier response.
func BPAOver(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m, n := r.m, r.n

	trackers := make([]bestpos.Tracker, m)
	cache := make([][]float64, m) // cache[i][pos-1] = score seen at pos of list i
	for i := range trackers {
		trackers[i] = bestpos.New(opts.Tracker, n)
		cache[i] = make([]float64, n)
	}
	locals := make([]float64, m)
	bpScores := make([]float64, m)
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
			trackers[i].MarkSeen(pos)
			cache[i][pos-1] = sr.Entry.Score
		}
		// Wave 2: position-carrying lookups at the other owners.
		lookupCalls := make([]transport.Call, 0, m*(m-1))
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				lookupCalls = append(lookupCalls,
					transport.Call{Owner: j, Req: transport.LookupReq{Item: entries[i].Item, WantPos: true}})
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
				trackers[j].MarkSeen(lr.Pos)
				cache[j][lr.Pos-1] = lr.Score
				locals[j] = lr.Score
			}
			r.y.Add(entries[i].Item, r.f.Combine(locals))
		}

		// λ from the best positions. Every tracker has Best() >= pos >= 1
		// because position pos of each list was just seen under sorted
		// access, and the cache holds a score for every seen position.
		for i := 0; i < m; i++ {
			bpScores[i] = cache[i][trackers[i].Best()-1]
		}
		lambda := r.f.Combine(bpScores)
		res.Threshold = lambda
		res.StopPosition = pos
		if r.y.AtLeast(lambda) {
			break
		}
	}

	res.BestPositions = make([]int, m)
	for i := range trackers {
		res.BestPositions[i] = trackers[i].Best()
	}
	return r.finish(res, nil)
}
