package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"lash/internal/core"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/pindex"
	"lash/internal/rewrite"
	"lash/internal/seqdb"
	"lash/internal/seqenc"
	"lash/server"
)

// searchProbes is how many pindex searches of each kind the replay times.
const searchProbes = 2000

// replay walks one cold mine of the workload's corpus stage by stage on one
// goroutine, calling each layer's exported functions the way core.mineJob
// does and recording a span around each batch of calls. Because every stage
// runs alone, the layer times add up (replay.coverage compares their sum
// with a single-worker core.Mine), which the service's overlapped pipeline
// cannot offer. The replay's pattern set must equal the oracle's.
func (r *run) replay(tr *tracer) error {
	ctx := context.Background()
	opt := r.spec.options
	params := gsm.Params{Sigma: opt.MinSupport, Gamma: opt.MaxGap, Lambda: opt.MaxLength}
	one := mapreduce.Config{Workers: 1}
	m := r.metrics
	begin := time.Now()
	var layers time.Duration // sum of the stages a cold mine consists of

	// seqdb: decode the uploaded .ldb.
	var db *gsm.Database
	d, err := tr.timed("seqdb.NewReader+ReadAll", "seqdb", 0, 0, func(int) error {
		rd, err := seqdb.NewReader(bytes.NewReader(r.corpus.ldb))
		if err != nil {
			return err
		}
		db, err = rd.ReadAll()
		return err
	})
	if err != nil {
		return err
	}
	m.set("seqdb.read_s", d.Seconds())
	m.set("seqdb.bytes_per_seq", float64(len(r.corpus.ldb))/float64(len(db.Seqs)))

	// flist: count hierarchy-aware item frequencies, derive the rank space.
	var freq []int64
	d, err = tr.timed("core.Frequencies", "flist", 0, 0, func(int) error {
		freq, err = core.Frequencies(ctx, db, false, one)
		return err
	})
	if err != nil {
		return err
	}
	m.set("flist.count_s", d.Seconds())
	layers += d
	var fl *flist.FList
	d, err = tr.timed("flist.Build", "flist", 0, 0, func(int) error {
		fl, err = flist.Build(db.Forest, freq, params.Sigma)
		return err
	})
	if err != nil {
		return err
	}
	m.set("flist.build_s", d.Seconds())
	m.set("flist.frequent_items", float64(fl.NumFrequent()))
	layers += d

	// rewrite: one partition sequence per (input sequence, pivot).
	type record struct {
		pivot    flist.Rank
		off, end int // ranks[off:end], then encoded[off:end]
	}
	var (
		records  []record
		ranks    []flist.Rank
		itemsIn  int
		rewrites int
	)
	d, _ = tr.timed("PivotRanks+Rewrite", "rewrite", 0, 0, func(int) error {
		rw := rewrite.NewRewriter(fl, params.Gamma, params.Lambda)
		var pivots, buf []flist.Rank
		for _, t := range db.Seqs {
			pivots = fl.PivotRanks(pivots[:0], t)
			for _, pivot := range pivots {
				buf = rw.Rewrite(buf[:0], t, pivot)
				rewrites++
				itemsIn += len(t)
				if len(buf) == 0 {
					continue
				}
				records = append(records, record{pivot: pivot, off: len(ranks), end: len(ranks) + len(buf)})
				ranks = append(ranks, buf...)
			}
		}
		return nil
	})
	m.set("rewrite.s", d.Seconds())
	m.set("rewrite.calls", float64(rewrites))
	m.set("rewrite.shrink", float64(len(ranks))/float64(itemsIn))
	layers += d

	// seqenc: encode every partition sequence.
	var encoded []byte
	d, _ = tr.timed("seqenc.AppendSeq", "seqenc", 0, 0, func(int) error {
		for i := range records {
			rc := &records[i]
			off := len(encoded)
			encoded = seqenc.AppendSeq(encoded, ranks[rc.off:rc.end])
			rc.off, rc.end = off, len(encoded)
		}
		return nil
	})
	m.set("seqenc.encode_s", d.Seconds())
	m.set("seqenc.bytes_per_record", float64(len(encoded))/float64(len(records)))
	layers += d

	// mapreduce: shuffle and aggregate the pre-encoded records. reduce is
	// what runs per pivot group; the first two passes only count.
	input := make([]int32, len(records))
	for i := range input {
		input[i] = int32(i)
	}
	aggregate := func(cfg mapreduce.Config, reduce func(uint32, []mapreduce.Entry) error) (*mapreduce.Stats, error) {
		_, stats, err := mapreduce.RunAgg(ctx, cfg, input, mapreduce.AggJob[int32, struct{}]{
			Name: "replay",
			Map: func(i int32, emit func(uint32, []byte, int64)) {
				rc := records[i]
				emit(uint32(rc.pivot), encoded[rc.off:rc.end], 1)
			},
			Hash: func(pivot uint32, _ []byte) uint32 { return mapreduce.HashUint32(pivot) },
			Size: func(pivot uint32, keyLen int, weight int64) int {
				return seqenc.UvarintLen(uint64(pivot)) + keyLen + seqenc.UvarintLen(uint64(weight))
			},
			Reduce: func(group uint32, entries []mapreduce.Entry, _ func(struct{})) error {
				return reduce(group, entries)
			},
		})
		return stats, err
	}
	discard := func(uint32, []mapreduce.Entry) error { return nil }
	var stats *mapreduce.Stats
	d, err = tr.timed("mapreduce.RunAgg", "mapreduce", 0, 0, func(int) error {
		stats, err = aggregate(one, discard)
		return err
	})
	if err != nil {
		return err
	}
	m.set("mapreduce.agg_s", d.Seconds())
	m.set("mapreduce.records_in", float64(len(records)))
	m.set("mapreduce.records_out", float64(stats.MapOutputRecords))
	m.set("mapreduce.bytes_out", float64(stats.MapOutputBytes))
	layers += d
	budgeted := one
	budgeted.MemoryBudget = max(1, stats.MapOutputBytes/4)
	d, err = tr.timed("mapreduce.RunAgg (budgeted)", "mapreduce", 0, 0, func(int) error {
		stats, err = aggregate(budgeted, discard)
		return err
	})
	if err != nil {
		return err
	}
	m.set("mapreduce.agg_spill_s", d.Seconds())
	m.set("mapreduce.spill_bytes", float64(stats.SpillBytes))
	m.set("mapreduce.spill_runs", float64(stats.SpillRuns))

	// seqenc + miner: a third pass decodes and mines each partition as it
	// completes, with a span around each (their op is the pivot). Mined
	// patterns are copied out in rank space, as core does, and named after
	// the pass.
	var (
		localMiner = miner.New(miner.KindPSM)
		scratch    = miner.NewScratch()
		localCfg   = miner.Config{Sigma: params.Sigma, Gamma: params.Gamma, Lambda: params.Lambda, PivotOnly: true}
		parents    = fl.ParentTable()
		decodes    []time.Duration
		mines      []time.Duration
		work       miner.Stats
		patRanks   []flist.Rank
		patEnds    []int
		patSupport []int64
	)
	_, err = tr.timed("mapreduce.RunAgg (decode+mine)", "mapreduce", 0, 0, func(pass int) error {
		_, err := aggregate(one, func(group uint32, entries []mapreduce.Entry) error {
			t0 := time.Now()
			total := 0
			for _, e := range entries {
				n, err := seqenc.DecodedLen(e.Key)
				if err != nil {
					return err
				}
				total += n
			}
			scratch.RankArena = slices.Grow(scratch.RankArena[:0], total)
			scratch.Seqs = scratch.Seqs[:0]
			for _, e := range entries {
				start := len(scratch.RankArena)
				var err error
				if scratch.RankArena, err = seqenc.DecodeSeq(scratch.RankArena, e.Key); err != nil {
					return err
				}
				scratch.Seqs = append(scratch.Seqs, miner.WSeq{Weight: e.Weight,
					Items: scratch.RankArena[start:len(scratch.RankArena):len(scratch.RankArena)]})
			}
			t1 := time.Now()
			part := miner.Partition{Pivot: flist.Rank(group), Parent: parents, Seqs: scratch.Seqs}
			st := localMiner.Mine(&part, localCfg, scratch, func(pat []flist.Rank, support int64) {
				patRanks = append(patRanks, pat...)
				patEnds = append(patEnds, len(patRanks))
				patSupport = append(patSupport, support)
			})
			t2 := time.Now()
			tr.add("seqenc.DecodeSeq", "seqenc", pass, int(group), t0, t1)
			tr.add("miner.Mine", "miner", pass, int(group), t1, t2)
			decodes = append(decodes, t1.Sub(t0))
			mines = append(mines, t2.Sub(t1))
			work.Add(st)
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	m.set("seqenc.decode_s", sumOf(decodes))
	m.set("miner.s", sumOf(mines))
	m.set("miner.partitions", float64(len(mines)))
	m.set("miner.explored", float64(work.Explored))
	m.set("miner.output", float64(work.Output))
	m.set("miner.max_partition_s", slices.Max(mines).Seconds())
	m.set("miner.top10_share", topShare(mines, 10))
	layers += time.Duration((sumOf(decodes) + sumOf(mines)) * float64(time.Second))

	var got digest
	var items gsm.Sequence
	names := make([]string, 0, params.Lambda)
	for i, end := range patEnds {
		start := 0
		if i > 0 {
			start = patEnds[i-1]
		}
		if items, err = fl.TranslateFromRanks(items[:0], patRanks[start:end]); err != nil {
			return err
		}
		names = names[:0]
		for _, w := range items {
			names = append(names, db.Forest.Name(w))
		}
		got.add(names, patSupport[i])
	}
	if got != r.oracle.digest {
		err = fmt.Errorf("layer replay mined %v, library says %v", got, r.oracle.digest)
	}
	r.tally.check(err)

	// core: the same mine through the real pipeline, on one worker and on
	// all of them.
	mineWith := func(workers int) (time.Duration, error) {
		d, err := tr.timed(fmt.Sprintf("core.Mine workers=%d", workers), "core", 0, 0, func(int) error {
			_, err := core.Mine(ctx, db, core.Options{Params: params, Miner: miner.KindPSM, MR: mapreduce.Config{Workers: workers}})
			return err
		})
		return d, err
	}
	w1, err := mineWith(1)
	if err != nil {
		return err
	}
	wn, err := mineWith(runtime.NumCPU())
	if err != nil {
		return err
	}
	m.set("core.mine_w1_s", w1.Seconds())
	m.set("core.mine_wn_s", wn.Seconds())
	m.set("core.speedup", w1.Seconds()/wn.Seconds())
	m.set("replay.coverage", layers.Seconds()/w1.Seconds())

	// pindex: build the serving index over the result and search it.
	pats := make([]pindex.Pattern, len(r.oracle.patterns))
	for i, p := range r.oracle.patterns {
		pats[i] = pindex.Pattern{Items: p.Items, Support: p.Support}
	}
	var ix *pindex.Index
	d, _ = tr.timed("pindex.Build", "pindex", 0, 0, func(int) error {
		ix = pindex.Build(pats, db.Forest)
		return nil
	})
	m.set("pindex.build_s", d.Seconds())
	m.set("pindex.bytes", float64(ix.SizeBytes()))
	pool := newQueryPool("", r.oracle, r.spec.pageSupport(), r.seed)
	search := func(metric string, limit int, query func(i int) pindex.Query) {
		var ids []uint32
		d, _ := tr.timed("pindex.Search "+metric, "pindex", 0, 0, func(int) error {
			for i := 0; i < searchProbes; i++ {
				ids, _ = ix.Search(ids[:0], query(i), 0, limit)
			}
			return nil
		})
		m.set("pindex.search_"+metric+"_us", d.Seconds()*1e6/searchProbes)
	}
	search("top", topK, func(int) pindex.Query { return pindex.Query{Level: pindex.NoLevel} })
	search("contains", filterPage, func(i int) pindex.Query {
		return pindex.Query{Level: pindex.NoLevel, Contains: pool.cases[kindContains][i%poolSize].items}
	})
	search("prefix", filterPage, func(i int) pindex.Query {
		return pindex.Query{Level: pindex.NoLevel, Prefix: pool.cases[kindPrefix][i%poolSize].items}
	})

	// server: encode the job reply the way the service's writeJSON does.
	view := server.JobView{ID: "replay", Status: server.JobDone, Result: &server.ResultView{
		Patterns: make([]server.PatternView, len(r.oracle.patterns)),
	}}
	for i, p := range r.oracle.patterns {
		view.Result.Patterns[i] = server.PatternView{Items: p.Items, Support: p.Support}
	}
	d, err = tr.timed("json encode of the job reply", "server", 0, 0, func(int) error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(view)
	})
	if err != nil {
		return err
	}
	m.set("server.encode_s", d.Seconds())

	tr.add("replay", "replay", 0, 0, begin, time.Now())
	return nil
}

// sumOf adds up durations in seconds.
func sumOf(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

// topShare is the share of the total taken by the k largest durations.
func topShare(ds []time.Duration, k int) float64 {
	total := sumOf(ds)
	if total == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return sumOf(s[max(0, len(s)-k):]) / total
}
