package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lash"
)

// The serve-query mix over GET /v1/patterns, in percent. Kinds are indices
// into queryKinds.
const (
	kindTop = iota
	kindContains
	kindPrefix
	kindRollup
	kindPage
	numKinds
)

var (
	queryKinds = [numKinds]string{"top", "contains", "prefix", "rollup", "page"}
	queryMix   = [numKinds]int{40, 20, 20, 10, 10}
)

const (
	topK       = 100
	filterPage = 50
	pageLimit  = 1000
	poolSize   = 256
)

// queryCase is one concrete request of the mix and what it asks for.
type queryCase struct {
	kind       int
	path       string
	items      []string // the contains/prefix item, or the rollup pattern
	minSupport int64    // the page kind's min_support
}

// patternsPath is the GET /v1/patterns prefix for db; version 0 leaves the
// corpus version to the service (the latest with a complete result).
func patternsPath(db string, version int) string {
	p := "/v1/patterns?db=" + url.QueryEscape(db)
	if version > 0 {
		p += fmt.Sprintf("&version=%d", version)
	}
	return p
}

// topPath asks for the top of db's latest result.
func topPath(db string) string { return fmt.Sprintf("%s&top=%d", patternsPath(db, 0), topK) }

// queryPool holds the concrete requests clients draw from: arguments are
// taken from the mined result with the run's seed, so every contains, prefix
// and rollup query has an answer.
type queryPool struct {
	cases [numKinds][]queryCase
}

func newQueryPool(base string, o *oracle, pageSupport int64, seed int64) *queryPool {
	rng := rand.New(rand.NewSource(seed))
	p := &queryPool{}
	p.cases[kindTop] = []queryCase{{kind: kindTop, path: fmt.Sprintf("%s&top=%d", base, topK)}}
	p.cases[kindPage] = []queryCase{{
		kind: kindPage, minSupport: pageSupport,
		path: fmt.Sprintf("%s&min_support=%d&limit=%d", base, pageSupport, pageLimit),
	}}
	for i := 0; i < poolSize; i++ {
		pat := o.patterns[rng.Intn(len(o.patterns))].Items
		item := pat[rng.Intn(len(pat))]
		p.cases[kindContains] = append(p.cases[kindContains], queryCase{
			kind: kindContains, items: []string{item},
			path: fmt.Sprintf("%s&contains=%s&limit=%d", base, url.QueryEscape(item), filterPage),
		})
		first := o.patterns[rng.Intn(len(o.patterns))].Items[0]
		p.cases[kindPrefix] = append(p.cases[kindPrefix], queryCase{
			kind: kindPrefix, items: []string{first},
			path: fmt.Sprintf("%s&prefix=%s&limit=%d", base, url.QueryEscape(first), filterPage),
		})
		whole := o.patterns[rng.Intn(len(o.patterns))].Items
		p.cases[kindRollup] = append(p.cases[kindRollup], queryCase{
			kind: kindRollup, items: whole,
			path: base + "&rollup=" + url.QueryEscape(strings.Join(whole, ",")),
		})
	}
	return p
}

// draw picks the next request of the mix.
func (p *queryPool) draw(rng *rand.Rand) *queryCase {
	x := rng.Intn(100)
	kind := 0
	for acc := queryMix[0]; x >= acc; acc += queryMix[kind] {
		kind++
	}
	cs := p.cases[kind]
	return &cs[rng.Intn(len(cs))]
}

// expected answers qc by naive scan of the oracle's result.
func (o *oracle) expected(qc *queryCase) (int, []lash.Pattern) {
	switch qc.kind {
	case kindTop:
		return o.scan(func(lash.Pattern) bool { return true }, topK)
	case kindContains:
		return o.scan(func(p lash.Pattern) bool { return slices.Contains(p.Items, qc.items[0]) }, filterPage)
	case kindPrefix:
		return o.scan(func(p lash.Pattern) bool { return p.Items[0] == qc.items[0] }, filterPage)
	case kindPage:
		return o.scan(func(p lash.Pattern) bool { return p.Support >= qc.minSupport }, pageLimit)
	}
	chain := o.rollup(qc.items)
	return len(chain), chain
}

// checkPage compares one GET /v1/patterns reply with the naive scan.
func (o *oracle) checkPage(qc *queryCase, reply []byte) error {
	var got page
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("%s: %v", qc.path, err)
	}
	total, want := o.expected(qc)
	if got.Total != total || got.Returned != len(want) || len(got.Patterns) != len(want) {
		return fmt.Errorf("%s: total %d returned %d, want total %d returned %d", qc.path, got.Total, got.Returned, total, len(want))
	}
	for i, p := range want {
		if g := got.Patterns[i]; g.Support != p.Support || !slices.Equal(g.Items, p.Items) {
			return fmt.Errorf("%s: pattern %d is %v/%d, want %v/%d", qc.path, i, g.Items, g.Support, p.Items, p.Support)
		}
	}
	return nil
}

// queryStats is what a query loop observed.
type queryStats struct {
	n         int                 // requests observed
	latencies [numKinds][]float64 // seconds, per kind
	bytes     int64
	failed    int
	notes     []string
	wall      time.Duration
	samples   []sampledReply
	maxLate   time.Duration // open loop only: how late the generator sent
}

// sampledReply is a reply kept for verification after the loop.
type sampledReply struct {
	qc    *queryCase
	reply []byte
}

// sampleEvery is how often a query reply is kept and later checked against
// the naive scan; every reply's status is checked.
const sampleEvery = 199

func (qs *queryStats) merge(o *queryStats) {
	qs.n += o.n
	for k := range qs.latencies {
		qs.latencies[k] = append(qs.latencies[k], o.latencies[k]...)
	}
	qs.bytes += o.bytes
	qs.failed += o.failed
	qs.notes = append(qs.notes, o.notes...)
	qs.samples = append(qs.samples, o.samples...)
	qs.maxLate = max(qs.maxLate, o.maxLate)
}

func (qs *queryStats) all() []float64 {
	var all []float64
	for _, l := range qs.latencies {
		all = append(all, l...)
	}
	return all
}

// observe records one finished request.
func (qs *queryStats) observe(qc *queryCase, status int, reply []byte, latency time.Duration, err error) {
	if err != nil || status != http.StatusOK {
		qs.failed++
		if len(qs.notes) < 5 {
			qs.notes = append(qs.notes, fmt.Sprintf("%s: status %d err %v", qc.path, status, err))
		}
	}
	qs.n++
	qs.latencies[qc.kind] = append(qs.latencies[qc.kind], latency.Seconds())
	qs.bytes += int64(len(reply))
	if qs.n%sampleEvery == 0 {
		qs.samples = append(qs.samples, sampledReply{qc, slices.Clone(reply)})
	}
}

// drive runs body on `clients` goroutines, each with a connection, a seeded
// generator and a queryStats of its own, waits for all of them and merges
// what they observed.
func drive(s *sut, clients int, seed int64, body func(c *client, qs *queryStats, rng *rand.Rand)) *queryStats {
	per := make([]*queryStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range per {
		per[i] = &queryStats{}
		wg.Add(1)
		go func(qs *queryStats, rng *rand.Rand) {
			defer wg.Done()
			c := s.newClient()
			defer c.close()
			body(c, qs, rng)
		}(per[i], rand.New(rand.NewSource(seed*1000+int64(i))))
	}
	wg.Wait()
	total := &queryStats{wall: time.Since(start)}
	for _, qs := range per {
		total.merge(qs)
	}
	return total
}

// closedLoop drives the query mix from `clients` connections for the given
// time: each client sends its next request when the previous reply has been
// read, as callers that page through results do.
func closedLoop(s *sut, pool *queryPool, clients int, seed int64, d time.Duration) *queryStats {
	deadline := time.Now().Add(d)
	return drive(s, clients, seed, func(c *client, qs *queryStats, rng *rand.Rand) {
		for time.Now().Before(deadline) {
			qc := pool.draw(rng)
			status, reply, lat, err := c.get(qc.path)
			qs.observe(qc, status, reply, lat, err)
		}
	})
}

// openLoop sends the query mix on a fixed schedule of rate requests per
// second regardless of replies, as independent users do. A request's latency
// runs from the instant it was due, so a stall is charged to every request
// it delays; maxLate reports how far behind schedule the generator itself
// ran.
func openLoop(s *sut, pool *queryPool, clients int, seed int64, rate float64, d time.Duration) *queryStats {
	n := int64(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	return drive(s, clients, seed, func(c *client, qs *queryStats, rng *rand.Rand) {
		for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			qs.maxLate = max(qs.maxLate, time.Since(due))
			qc := pool.draw(rng)
			status, reply, _, err := c.get(qc.path)
			qs.observe(qc, status, reply, time.Since(due), err)
		}
	})
}

// verify checks the kept replies against the naive scan and folds the
// loop's outcome into the tally: every request is one attempted op.
func (qs *queryStats) verify(t *tally, o *oracle) {
	t.attempted += qs.n
	t.failed += qs.failed
	t.notes = append(t.notes, qs.notes...)
	for _, s := range qs.samples {
		t.check(o.checkPage(s.qc, s.reply))
	}
}
