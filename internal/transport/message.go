package transport

import (
	"encoding/json"
	"fmt"
	"math"

	"topk/internal/list"
)

// Kind names a request type. It doubles as the wire tag of the HTTP
// backend: a request of kind k travels as a POST to /rpc/k.
type Kind string

const (
	KindSorted Kind = "sorted"
	KindLookup Kind = "lookup"
	KindProbe  Kind = "probe"
	KindMark   Kind = "mark"
	KindTopK   Kind = "topk"
	KindAbove  Kind = "above"
	KindFetch  Kind = "fetch"
	KindBatch  Kind = "batch"
	KindUpdate Kind = "update"
)

// Request is one originator-to-owner message. RequestScalars is the
// number of variable-length scalar values the request carries beyond its
// fixed-size header fields — only batched requests (fetch item lists)
// carry any; single positions, item IDs and thresholds are header-sized.
//
// Replayable reports whether re-sending the request after a lost
// response returns the same answer. A replay may re-perform (and
// re-charge) the owner-side access — honest accounting for work the
// owner really did twice — but it must not change what any future
// exchange of the session observes. Probe and above are NOT replayable:
// each execution advances an owner-side cursor (the seen-position
// tracker, the scan depth), so replaying one would silently skip list
// entries and corrupt the answer. The HTTP client's transient-failure
// retry is gated on this.
//
// Sessionful reports whether serving the request reads or writes
// per-session owner-side protocol state beyond the access tally: the
// seen-position tracker (probe, mark) or the scan-depth cursor (topk,
// above). Replicas of a list serve the same data but do NOT share
// session state, so sessionful traffic must stick to one replica per
// list — the replica-aware HTTP client pins it, and only stateless
// requests (sorted, lookup, fetch) may fail over between replicas
// mid-query. Note the two axes differ: mark and topk are replayable yet
// sessionful — safe to retry against the SAME replica, not safe to move.
type Request interface {
	Kind() Kind
	RequestScalars() int
	Replayable() bool
	Sessionful() bool
}

// Response is one owner-to-originator message. ResponseScalars is the
// number of scalar values (items, scores, positions) it carries; the
// protocols charge it to their payload accounting, so it must be a pure
// function of the response content — identical across backends.
type Response interface {
	ResponseScalars() int
}

// Upper is a float64 that survives JSON round-trips even at +Inf, which
// encoding/json rejects. BPA2's best-position piggyback is +Inf while an
// owner has not yet seen position 1 of its list ("no information" — the
// neutral upper bound under any monotone scoring function), so it is
// encoded as the JSON string "inf".
type Upper float64

// MarshalJSON encodes +Inf as "inf" and finite values as plain numbers.
func (u Upper) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(u), 1) {
		return []byte(`"inf"`), nil
	}
	return json.Marshal(float64(u))
}

// UnmarshalJSON accepts the "inf" string or a plain number.
func (u *Upper) UnmarshalJSON(b []byte) error {
	if string(b) == `"inf"` {
		*u = Upper(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("transport: bad upper bound %s: %w", b, err)
	}
	*u = Upper(f)
	return nil
}

// SortedReq asks an owner for the entry at sorted position Pos (TA, BPA).
type SortedReq struct {
	Pos int `json:"pos"`
}

func (SortedReq) Kind() Kind          { return KindSorted }
func (SortedReq) RequestScalars() int { return 0 }

// Replayable: reading a fixed position twice returns the same entry.
func (SortedReq) Replayable() bool { return true }

// Sessionful: NO — a positional read touches no session cursor.
func (SortedReq) Sessionful() bool { return false }

// SortedResp returns the entry; the position is implied by the request.
type SortedResp struct {
	Entry list.Entry `json:"entry"`
}

// ResponseScalars: item and score.
func (SortedResp) ResponseScalars() int { return 2 }

// LookupReq asks an owner for a random-access lookup of Item. WantPos
// requests the item's position too (BPA ships positions, TA does not).
type LookupReq struct {
	Item    list.ItemID `json:"item"`
	WantPos bool        `json:"wantPos,omitempty"`
}

func (LookupReq) Kind() Kind          { return KindLookup }
func (LookupReq) RequestScalars() int { return 0 }

// Replayable: a lookup mutates nothing.
func (LookupReq) Replayable() bool { return true }

// Sessionful: NO — a lookup touches no session cursor.
func (LookupReq) Sessionful() bool { return false }

// LookupResp returns the local score, plus the position iff requested
// (HasPos mirrors the request's WantPos, so the charged payload is a
// function of the response alone).
type LookupResp struct {
	Score  float64 `json:"score"`
	Pos    int     `json:"pos,omitempty"`
	HasPos bool    `json:"hasPos,omitempty"`
}

// ResponseScalars: the score, plus the position when shipped.
func (r LookupResp) ResponseScalars() int {
	if r.HasPos {
		return 2
	}
	return 1
}

// ProbeReq asks a BPA2 owner to read its first unseen position.
type ProbeReq struct{}

func (ProbeReq) Kind() Kind          { return KindProbe }
func (ProbeReq) RequestScalars() int { return 0 }

// Replayable: NO — every probe advances the owner's seen-position
// cursor, so a replay would skip the entry the lost response carried.
func (ProbeReq) Replayable() bool { return false }

// Sessionful: YES — the probe cursor lives on one replica.
func (ProbeReq) Sessionful() bool { return true }

// ProbeResp returns the probed entry plus the owner's piggybacked
// best-position state.
type ProbeResp struct {
	Entry list.Entry `json:"entry"`
	// BestScore is the score at the owner's current best position
	// (+Inf before the owner has seen position 1).
	BestScore Upper `json:"bestScore"`
	// Exhausted reports that every position of the list has been seen;
	// the originator stops probing this owner.
	Exhausted bool `json:"exhausted,omitempty"`
	// Empty reports that the owner had nothing left to probe and the
	// response carries the piggyback only (defensive: the originator
	// tracks exhaustion and normally never probes an exhausted owner).
	Empty bool `json:"empty,omitempty"`
	// Pos is the position this probe marked seen (0 when Empty) — the
	// session-state delta the client holds, so a handoff can seed a
	// sibling replica when the pinned replica dies.
	// Recovery vocabulary, not protocol payload: it is excluded from
	// ResponseScalars, so accounting stays identical across backends.
	Pos int `json:"pos,omitempty"`
}

// ResponseScalars: item, score and best-position score — or only the
// piggyback when there was nothing to probe.
func (r ProbeResp) ResponseScalars() int {
	if r.Empty {
		return 1
	}
	return 3
}

// MarkReq asks a BPA2 owner to resolve Item and record its position in
// the owner-side tracker.
type MarkReq struct {
	Item list.ItemID `json:"item"`
}

func (MarkReq) Kind() Kind          { return KindMark }
func (MarkReq) RequestScalars() int { return 0 }

// Replayable: marking the same position twice is a tracker no-op and
// the score/piggyback answer is unchanged.
func (MarkReq) Replayable() bool { return true }

// Sessionful: YES — the mark lands in one replica's tracker, which the
// session's future probes depend on.
func (MarkReq) Sessionful() bool { return true }

// MarkResp returns the local score plus the piggybacked best-position
// state. The item's position stays at the owner.
type MarkResp struct {
	Score     float64 `json:"score"`
	BestScore Upper   `json:"bestScore"`
	Exhausted bool    `json:"exhausted,omitempty"`
	// Pos is the position this mark recorded — the session-state delta
	// the client holds for a handoff (see ProbeResp.Pos). Excluded from
	// ResponseScalars: the position itself stays at the owner in the
	// paper's protocol, and the recovery delta must not perturb the
	// payload accounting.
	Pos int `json:"pos,omitempty"`
}

// ResponseScalars: score and best-position score.
func (MarkResp) ResponseScalars() int { return 2 }

// TopKReq asks an owner for its K highest entries (TPUT phase 1).
type TopKReq struct {
	K int `json:"k"`
}

func (TopKReq) Kind() Kind          { return KindTopK }
func (TopKReq) RequestScalars() int { return 0 }

// Replayable: the prefix read is position-fixed and the scan depth is
// set, not advanced (depth = K both times).
func (TopKReq) Replayable() bool { return true }

// Sessionful: YES — it sets the scan depth the session's above-scan
// continues from, on one replica.
func (TopKReq) Sessionful() bool { return true }

// TopKResp returns the owner's top-K entries in list order.
type TopKResp struct {
	Entries []list.Entry `json:"entries"`
}

// ResponseScalars: item and score per entry.
func (r TopKResp) ResponseScalars() int { return 2 * len(r.Entries) }

// AboveReq asks an owner for every entry below its already-sent prefix
// with score at least T (TPUT phase 2).
type AboveReq struct {
	T float64 `json:"t"`
}

func (AboveReq) Kind() Kind          { return KindAbove }
func (AboveReq) RequestScalars() int { return 0 }

// Replayable: NO — the scan continues from the depth cursor the first
// execution advanced, so a replay would return a truncated tail.
func (AboveReq) Replayable() bool { return false }

// Sessionful: YES — the depth cursor lives on one replica.
func (AboveReq) Sessionful() bool { return true }

// AboveResp returns the matching entries in list order.
type AboveResp struct {
	Entries []list.Entry `json:"entries"`
}

// ResponseScalars: item and score per entry.
func (r AboveResp) ResponseScalars() int { return 2 * len(r.Entries) }

// FetchReq asks an owner for the exact local scores of Items (TPUT
// phase 3). The item batch is variable-length, so it is charged as
// request payload.
type FetchReq struct {
	Items []list.ItemID `json:"items"`
}

func (FetchReq) Kind() Kind            { return KindFetch }
func (r FetchReq) RequestScalars() int { return len(r.Items) }

// Replayable: a batch of lookups mutates nothing.
func (FetchReq) Replayable() bool { return true }

// Sessionful: NO — exact-score lookups touch no session cursor.
func (FetchReq) Sessionful() bool { return false }

// FetchResp returns the scores in request order.
type FetchResp struct {
	Scores []float64 `json:"scores"`
}

// ResponseScalars: one score per requested item.
func (r FetchResp) ResponseScalars() int { return len(r.Scores) }

// ScoreUpdate is one (item, delta) local-score change carried by an
// update message.
type ScoreUpdate struct {
	Item  list.ItemID `json:"item"`
	Delta float64     `json:"delta"`
}

// UpdateReq applies a batch of score updates to the owner's list — the
// live subsystem's ingestion message. Feed names the update stream and
// Seq is the feed's monotone sequence number: an owner remembers the
// highest Seq it applied per feed and acknowledges (without reapplying)
// anything at or below it, so retries and backpressure re-sends are
// idempotent by construction. The update batch is variable-length and is
// charged as request payload.
type UpdateReq struct {
	Feed    string        `json:"feed"`
	Seq     uint64        `json:"seq"`
	Updates []ScoreUpdate `json:"updates"`
}

func (UpdateReq) Kind() Kind { return KindUpdate }

// RequestScalars: item and delta per update.
func (r UpdateReq) RequestScalars() int { return 2 * len(r.Updates) }

// Replayable: the per-feed sequence number makes a re-send a no-op ack,
// never a double application.
func (UpdateReq) Replayable() bool { return true }

// Sessionful: NO — updates target the owner's list (feed-plane state
// shared by every query), not any query session's cursor. They fan out
// to every replica of a list rather than pinning to one.
func (UpdateReq) Sessionful() bool { return false }

// UpdateResp acknowledges an update batch. Version is the owner's
// per-list version after the batch (piggybacked so coordinators can
// detect staleness without a second exchange); Applied is false when the
// batch was a duplicate the sequence number suppressed. Crossings names
// the standing queries whose installed filter thresholds the batch
// crossed — the Mäcker-style notification signal: an empty Crossings
// means the owner certifies the batch cannot have changed those queries'
// global top-k.
type UpdateResp struct {
	Applied   bool     `json:"applied,omitempty"`
	Version   uint64   `json:"version"`
	Crossings []string `json:"crossings,omitempty"`
}

// ResponseScalars: the version scalar plus one crossing flag per
// notified query.
func (r UpdateResp) ResponseScalars() int { return 1 + len(r.Crossings) }

// BatchReq coalesces several independent logical requests for one owner
// into a single wire exchange — the round-coalescing that collapses a
// protocol round's per-owner fan-out (TA/BPA's m-1 lookups per owner)
// into one POST per owner on the HTTP backend, and into one priced
// exchange under the Concurrent backend's latency model. The owner
// executes the inner requests in order, atomically against one session
// (the session mutex is held across the whole batch), and answers with a
// BatchResp whose responses are in request order.
//
// A batch is a wire vehicle, not a protocol message: traffic accounting
// (Net.Messages, Net.Payload, Net.PerOwner) is charged from the logical
// inner messages by the originator, so coalescing cannot perturb the
// paper's cost metrics. Batches must not nest.
type BatchReq struct {
	Reqs []Request
}

func (BatchReq) Kind() Kind { return KindBatch }

// RequestScalars: the sum over the inner requests — a latency model that
// prices payload sees exactly the scalars that travel.
func (b BatchReq) RequestScalars() int {
	n := 0
	for _, r := range b.Reqs {
		n += r.RequestScalars()
	}
	return n
}

// Replayable: only when every inner request is — one cursor-advancing
// member poisons the whole exchange, because a lost response leaves the
// originator unable to tell how far the owner got.
func (b BatchReq) Replayable() bool {
	for _, r := range b.Reqs {
		if !r.Replayable() {
			return false
		}
	}
	return true
}

// Sessionful: when any inner request is — a batch carrying one
// cursor-touching member must travel to the session's pinned replica.
func (b BatchReq) Sessionful() bool {
	for _, r := range b.Reqs {
		if r.Sessionful() {
			return true
		}
	}
	return false
}

// BatchResp carries the inner responses in request order.
type BatchResp struct {
	Resps []Response
}

// ResponseScalars: the sum over the inner responses.
func (b BatchResp) ResponseScalars() int {
	n := 0
	for _, r := range b.Resps {
		n += r.ResponseScalars()
	}
	return n
}

// wireEnvelope is the kind-tagged JSON frame of one batched inner
// message; the binary codec carries the same tag as its frame byte.
type wireEnvelope struct {
	Kind Kind            `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// batchWire is the JSON form of BatchReq and BatchResp.
type batchWire struct {
	Msgs []wireEnvelope `json:"msgs"`
}

// MarshalJSON encodes the inner requests as kind-tagged envelopes.
func (b BatchReq) MarshalJSON() ([]byte, error) {
	w := batchWire{Msgs: make([]wireEnvelope, len(b.Reqs))}
	for i, r := range b.Reqs {
		if r.Kind() == KindBatch {
			return nil, fmt.Errorf("transport: batches must not nest")
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		w.Msgs[i] = wireEnvelope{Kind: r.Kind(), Body: raw}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes kind-tagged envelopes back into typed requests.
func (b *BatchReq) UnmarshalJSON(data []byte) error {
	var w batchWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	// An empty batch decodes to nil, like the binary codec, so the two
	// wires round-trip to DeepEqual-identical messages.
	b.Reqs = nil
	for i, env := range w.Msgs {
		req, err := UnmarshalRequestJSON(env.Kind, env.Body)
		if err != nil {
			return fmt.Errorf("transport: batch[%d]: %w", i, err)
		}
		b.Reqs = append(b.Reqs, req)
	}
	return nil
}

// MarshalJSON encodes the inner responses as kind-tagged envelopes. The
// response kind mirrors the request kind, so the decoder can pick the
// concrete type.
func (b BatchResp) MarshalJSON() ([]byte, error) {
	w := batchWire{Msgs: make([]wireEnvelope, len(b.Resps))}
	for i, r := range b.Resps {
		kind, err := responseKind(r)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		w.Msgs[i] = wireEnvelope{Kind: kind, Body: raw}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes kind-tagged envelopes back into typed responses.
func (b *BatchResp) UnmarshalJSON(data []byte) error {
	var w batchWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	b.Resps = nil
	for i, env := range w.Msgs {
		resp, err := UnmarshalResponseJSON(env.Kind, env.Body)
		if err != nil {
			return fmt.Errorf("transport: batch[%d]: %w", i, err)
		}
		b.Resps = append(b.Resps, resp)
	}
	return nil
}

// responseKind maps a response to the kind of the request it answers —
// the tag batches and the binary codec frame it under.
func responseKind(resp Response) (Kind, error) {
	switch resp.(type) {
	case SortedResp:
		return KindSorted, nil
	case LookupResp:
		return KindLookup, nil
	case ProbeResp:
		return KindProbe, nil
	case MarkResp:
		return KindMark, nil
	case TopKResp:
		return KindTopK, nil
	case AboveResp:
		return KindAbove, nil
	case FetchResp:
		return KindFetch, nil
	case UpdateResp:
		return KindUpdate, nil
	case BatchResp:
		return KindBatch, nil
	default:
		return "", fmt.Errorf("transport: unknown response type %T", resp)
	}
}

// UnmarshalRequestJSON decodes one request of the given kind from its
// JSON body — the shared decode table of the HTTP server and the batch
// envelope. Batches must not nest, so KindBatch is rejected here; the
// top-level HTTP path decodes batches itself.
func UnmarshalRequestJSON(kind Kind, data []byte) (Request, error) {
	switch kind {
	case KindSorted:
		var r SortedReq
		return r, unmarshalStrict(data, &r)
	case KindLookup:
		var r LookupReq
		return r, unmarshalStrict(data, &r)
	case KindProbe:
		var r ProbeReq
		return r, unmarshalStrict(data, &r)
	case KindMark:
		var r MarkReq
		return r, unmarshalStrict(data, &r)
	case KindTopK:
		var r TopKReq
		return r, unmarshalStrict(data, &r)
	case KindAbove:
		var r AboveReq
		return r, unmarshalStrict(data, &r)
	case KindFetch:
		var r FetchReq
		return r, unmarshalStrict(data, &r)
	case KindUpdate:
		var r UpdateReq
		return r, unmarshalStrict(data, &r)
	case KindBatch:
		return nil, fmt.Errorf("transport: batches must not nest")
	default:
		return nil, fmt.Errorf("transport: unknown request kind %q", kind)
	}
}

// UnmarshalResponseJSON decodes one response of the given kind from its
// JSON body — the client-side mirror of UnmarshalRequestJSON.
func UnmarshalResponseJSON(kind Kind, data []byte) (Response, error) {
	switch kind {
	case KindSorted:
		var r SortedResp
		return r, unmarshalStrict(data, &r)
	case KindLookup:
		var r LookupResp
		return r, unmarshalStrict(data, &r)
	case KindProbe:
		var r ProbeResp
		return r, unmarshalStrict(data, &r)
	case KindMark:
		var r MarkResp
		return r, unmarshalStrict(data, &r)
	case KindTopK:
		var r TopKResp
		return r, unmarshalStrict(data, &r)
	case KindAbove:
		var r AboveResp
		return r, unmarshalStrict(data, &r)
	case KindFetch:
		var r FetchResp
		return r, unmarshalStrict(data, &r)
	case KindUpdate:
		var r UpdateResp
		return r, unmarshalStrict(data, &r)
	case KindBatch:
		return nil, fmt.Errorf("transport: batches must not nest")
	default:
		return nil, fmt.Errorf("transport: unknown response kind %q", kind)
	}
}

func unmarshalStrict(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("transport: bad message body: %w", err)
	}
	return nil
}
