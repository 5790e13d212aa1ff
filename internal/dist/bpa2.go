package dist

import (
	"context"

	"topk/internal/list"
	"topk/internal/transport"
)

// BPA2 runs the paper's Section 5 distributed protocol over the
// deterministic in-process transport; see BPA2Over.
func BPA2(db *list.Database, opts Options) (*Result, error) {
	t, err := loopback(db)
	if err != nil {
		return nil, err
	}
	return BPA2Over(context.Background(), t, opts)
}

// BPA2Over runs the paper's Section 5 distributed protocol over the
// given transport. Each list owner manages its own seen positions and
// best position; the query originator keeps only the answer set Y and
// the m best-position scores. Per round the originator asks every
// non-exhausted owner to probe its first unseen position (a direct
// access — no position is ever read twice, Theorem 5) and resolves each
// probed item at the other owners, who record the looked-up positions
// locally. Every response piggybacks the owner's current best-position
// score, so the stopping threshold λ = f(s1(bp1), ..., sm(bpm)) costs no
// extra messages and the seen-position sets never travel — the property
// that makes BPA2 attractive in distributed settings.
//
// Probes are inherently sequential — which position owner i probes next
// depends on the marks earlier probes of the same round planted there —
// but the (m-1) marks each probe triggers go to distinct owners and fan
// out in one wave, which a concurrent backend overlaps. Each owner of
// that wave receives exactly one mark, so the wave is already one wire
// exchange per owner; round coalescing cannot compress BPA2 further —
// nor may the marks be deferred across probes, because probe j must
// observe every mark planted at owner j earlier in the round for the
// access counts to match centralized BPA2.
func BPA2Over(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m := r.m

	// The originator's complete state: the answer set (in r.y), the m
	// best-position scores, and which owners have nothing left to probe.
	bestScore := make([]float64, m)
	exhausted := make([]bool, m)
	for i := range bestScore {
		bestScore[i] = inf
	}
	locals := make([]float64, m)

	res := &Result{}
	for {
		r.nw.net.Rounds++
		progress := false
		for i := 0; i < m; i++ {
			if exhausted[i] {
				continue // nothing unseen at this owner
			}
			resp, err := r.do(i, transport.ProbeReq{})
			if err != nil {
				return nil, err
			}
			pr, err := as[transport.ProbeResp](resp)
			if err != nil {
				return nil, err
			}
			bestScore[i], exhausted[i] = float64(pr.BestScore), pr.Exhausted
			if pr.Empty {
				continue // defensive: owner had nothing left to probe
			}
			progress = true
			locals[i] = pr.Entry.Score
			markCalls := make([]transport.Call, 0, m-1)
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				markCalls = append(markCalls, transport.Call{Owner: j, Req: transport.MarkReq{Item: pr.Entry.Item}})
			}
			markResps, err := r.doAll(markCalls)
			if err != nil {
				return nil, err
			}
			for c, resp := range markResps {
				j := markCalls[c].Owner
				mr, err := as[transport.MarkResp](resp)
				if err != nil {
					return nil, err
				}
				bestScore[j], exhausted[j] = float64(mr.BestScore), mr.Exhausted
				locals[j] = mr.Score
			}
			r.y.Add(pr.Entry.Item, r.f.Combine(locals))
		}
		if !progress {
			// Every position of every list has been seen; Y is exact.
			break
		}

		// After the first round every owner has probed position 1 at the
		// latest, so no bestScore is left at its +Inf initial value.
		lambda := r.f.Combine(bestScore)
		res.Threshold = lambda
		if r.y.AtLeast(lambda) {
			break
		}
	}

	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	res.BestPositions = make([]int, m)
	for i, st := range sts {
		res.BestPositions[i] = st.Best
	}
	return r.finish(res, sts)
}
