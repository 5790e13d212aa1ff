package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"topk"
	"topk/internal/list"
	"topk/internal/transport"
)

// distProtocols are the protocols the distributed query pools draw from.
var distProtocols = []topk.Protocol{topk.TPUT, topk.DistTA, topk.DistBPA2}

// clusterSpec sizes the cluster workload: correlated data small enough
// that per-request transport and control-plane work dominates.
func clusterSpec(tiny bool) spec {
	if tiny {
		return spec{n: 400, m: 3, alpha: 0.01, ks: []int{5, 10, 20}}
	}
	return spec{n: 20_000, m: 3, alpha: 0.01, ks: []int{5, 10, 20}}
}

// runCluster is the read-only distributed workload: two closed-loop
// originators querying six HTTP owners, two replicas per list.
func runCluster(cfg config) (*result, error) {
	in, err := newInputs(clusterSpec(cfg.tiny), cfg.seed, distProtocols, nil)
	if err != nil {
		return nil, err
	}
	refErrs, err := in.referenceDist()
	if err != nil {
		return nil, err
	}
	if cfg.tamper != nil {
		cfg.tamper(in)
	}
	return measure(cfg, workload{
		primary: kindQuery,
		warmup:  cfg.warmup(),
		setup: func(p *probes) (*system, error) {
			own, err := startOwners(in.db, 2, false, p)
			if err != nil {
				return nil, err
			}
			c, err := topk.DialClusterConfig(context.Background(), topk.ClusterConfig{Topology: own.topology()})
			if err != nil {
				own.close()
				return nil, err
			}
			sys := &system{
				check: func() []error { return append(own.check(c), refErrs...) },
				close: func() {
					c.Close()
					own.close()
				},
			}
			for cl := range 2 {
				sys.clients = append(sys.clients, queryClient(in, c, opSequence(cfg.seed, cl, len(in.pool)), p, true))
			}
			return sys, nil
		},
	})
}

// referenceDist runs every pool query over the in-process loopback
// transport and records its accesses and messages as the reference a
// cluster run of the same query must reproduce, and the median of three
// run times as the query's cost without a wire. A reference answer that
// differs from the oracle is returned as a failed check.
func (in *inputs) referenceDist() ([]error, error) {
	db, err := topk.FromColumns(in.columns)
	if err != nil {
		return nil, err
	}
	var failed []error
	for i, q := range in.pool {
		var res *topk.DistResult
		var times []float64
		for range 3 {
			start := time.Now()
			res, err = db.ExecDistributed(context.Background(), in.topkQuery(q), q.protocol)
			times = append(times, float64(time.Since(start)))
			if err != nil {
				return nil, fmt.Errorf("loopback reference of pool query %d: %w", i, err)
			}
		}
		in.loopback = append(in.loopback, time.Duration(median(times)))
		if err := checkAnswer(res.Items, in.oracle[i]); err != nil {
			failed = append(failed, fmt.Errorf("loopback reference of pool query %d: %w", i, err))
		}
		in.accesses = append(in.accesses, res.Stats.Net.TotalAccesses)
		in.messages = append(in.messages, res.Stats.Net.Messages)
	}
	return failed, nil
}

// topkQuery is the public form of a pool query.
func (in *inputs) topkQuery(q query) topk.Query {
	return topk.Query{K: q.k, Scoring: in.scorings[q.scoring]}
}

// queryClient issues the pool queries of seq against the cluster. With
// exact set, every answer must equal the oracle and every run's accesses
// and messages the loopback reference; without it (reads racing writes)
// an answer must only be well-formed.
func queryClient(in *inputs, c *topk.Cluster, seq []int, p *probes, exact bool) clientFunc {
	var opts []topk.ExecOption
	if p != nil {
		opts = append(opts, topk.WithTrace())
	}
	return func(j int) (outcome, error) {
		i := seq[j%len(seq)]
		q := in.pool[i]
		start := time.Now()
		res, err := c.Exec(context.Background(), in.topkQuery(q), q.protocol, opts...)
		lat := time.Since(start)
		if err != nil {
			return outcome{}, err
		}
		if p != nil {
			p.noteDist(res, lat, in.loopback[i])
		}
		out := outcome{kind: kindQuery, lat: lat, accesses: res.Stats.Net.TotalAccesses}
		if !exact {
			return out, wellFormed(res.Items, q.k)
		}
		if err := checkAnswer(res.Items, in.oracle[i]); err != nil {
			return out, fmt.Errorf("%v k=%d: %w", q.protocol, q.k, err)
		}
		if err := checkCost(res.Stats.Net.TotalAccesses, res.Stats.Net.Messages, in.accesses[i], in.messages[i]); err != nil {
			return out, fmt.Errorf("%v k=%d: %w", q.protocol, q.k, err)
		}
		return out, nil
	}
}

// wellFormed checks what any answer must satisfy: k distinct items in
// non-increasing score order.
func wellFormed(items []topk.ScoredItem, k int) error {
	if len(items) != k {
		return fmt.Errorf("answer has %d items, want %d", len(items), k)
	}
	seen := make(map[int]bool, k)
	for i, it := range items {
		if seen[it.Item] || (i > 0 && it.Score > items[i-1].Score) {
			return fmt.Errorf("answer is not a ranking at rank %d", i+1)
		}
		seen[it.Item] = true
	}
	return nil
}

// owners is a set of HTTP list owners on loopback listeners.
type owners struct {
	// servers[i] holds the replicas of list i.
	servers [][]*httptest.Server
	owners  []*transport.Owner
}

// startOwners serves every list of db from replicas HTTP owners each.
// With updates set each owner converts its list to a mutable one. A
// non-nil probes puts each owner behind the wire probe and, for
// read-only lists, its list behind the store probe.
func startOwners(db *list.Database, replicas int, updates bool, p *probes) (*owners, error) {
	src := db
	if p != nil && !updates {
		var err error
		if src, err = p.store.wrapDatabase(db); err != nil {
			return nil, err
		}
	}
	own := &owners{servers: make([][]*httptest.Server, db.M())}
	for i := range db.M() {
		for range replicas {
			srv, err := transport.NewServer(src, i)
			if err == nil && updates {
				err = srv.Owner().EnableUpdates()
			}
			if err != nil {
				own.close()
				return nil, err
			}
			ts := httptest.NewUnstartedServer(srv.Handler())
			if p != nil {
				ts.Config.Handler = p.wire.wrap(srv.Handler())
				ts.Config.ConnState = p.wire.connState
				p.wire.owners = append(p.wire.owners, srv.Owner())
			}
			ts.Start()
			own.servers[i] = append(own.servers[i], ts)
			own.owners = append(own.owners, srv.Owner())
		}
	}
	return own, nil
}

// topology returns the owners' replica addresses by list.
func (o *owners) topology() [][]string {
	topo := make([][]string, len(o.servers))
	for i, reps := range o.servers {
		for _, ts := range reps {
			topo[i] = append(topo[i], ts.URL)
		}
	}
	return topo
}

// check is the end-of-run health check: no owner holds a session, and
// the cluster client sees every replica healthy. It returns one entry
// per owner and per replica.
func (o *owners) check(c *topk.Cluster) []error {
	var out []error
	for i, ow := range o.owners {
		var err error
		if n := ow.Sessions(); n != 0 {
			err = fmt.Errorf("owner %d holds %d sessions after the run", i, n)
		}
		out = append(out, err)
	}
	for _, h := range c.Health() {
		var err error
		if !h.Healthy || h.Breaker != "closed" {
			err = errors.New("replica " + h.URL + " unhealthy, breaker " + h.Breaker)
		}
		out = append(out, err)
	}
	return out
}

// close stops every owner.
func (o *owners) close() {
	for _, reps := range o.servers {
		for _, ts := range reps {
			ts.Close()
		}
	}
}
