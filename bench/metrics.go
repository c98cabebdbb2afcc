package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric of the benchmark. bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which are never gated). BENCHMARK.json repeats these tables; a
// test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the service sees. Every workload reports all
// four; what one "op" is differs per workload (see workloads.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured only on the traced pass. Layers are this repo's
// packages; the prefix before the first dot is the layer.
var perLayer = []metricDef{
	{"seqdb.read_s", "s", "lower", 0},
	{"seqdb.bytes_per_seq", "B", "lower", 0},
	{"flist.count_s", "s", "lower", 0},
	{"flist.build_s", "s", "lower", 0},
	{"flist.frequent_items", "count", "lower", 0},
	{"rewrite.s", "s", "lower", 0},
	{"rewrite.calls", "count", "lower", 0},
	{"rewrite.shrink", "ratio", "lower", 0},
	{"seqenc.encode_s", "s", "lower", 0},
	{"seqenc.decode_s", "s", "lower", 0},
	{"seqenc.bytes_per_record", "B", "lower", 0},
	{"mapreduce.agg_s", "s", "lower", 0},
	{"mapreduce.agg_spill_s", "s", "lower", 0},
	{"mapreduce.records_in", "count", "lower", 0},
	{"mapreduce.records_out", "count", "lower", 0},
	{"mapreduce.bytes_out", "B", "lower", 0},
	{"mapreduce.spill_bytes", "B", "lower", 0},
	{"mapreduce.spill_runs", "count", "lower", 0},
	{"miner.s", "s", "lower", 0},
	{"miner.partitions", "count", "lower", 0},
	{"miner.explored", "count", "lower", 0},
	{"miner.output", "count", "higher", 0},
	{"miner.max_partition_s", "s", "lower", 0},
	{"miner.top10_share", "ratio", "lower", 0},
	{"core.mine_w1_s", "s", "lower", 0},
	{"core.mine_wn_s", "s", "lower", 0},
	{"core.speedup", "ratio", "higher", 0},
	{"core.delta_reuse_zipf", "ratio", "higher", 0},
	{"core.delta_reuse_topical", "ratio", "higher", 0},
	{"pindex.build_s", "s", "lower", 0},
	{"pindex.bytes", "B", "lower", 0},
	{"pindex.search_top_us", "us", "lower", 0},
	{"pindex.search_contains_us", "us", "lower", 0},
	{"pindex.search_prefix_us", "us", "lower", 0},
	{"server.register_s", "s", "lower", 0},
	{"server.job_queue_s", "s", "lower", 0},
	{"server.job_run_s", "s", "lower", 0},
	{"server.respond_s", "s", "lower", 0},
	{"server.response_mb", "MB", "lower", 0},
	{"server.encode_s", "s", "lower", 0},
	{"server.mine_mem_ms", "ms", "lower", 0},
	{"server.mine_spill_ms", "ms", "lower", 0},
	{"server.append_s", "s", "lower", 0},
	{"server.refresh_zipf_ms", "ms", "lower", 0},
	{"server.refresh_topical_ms", "ms", "lower", 0},
	{"server.cache_hit_ms", "ms", "lower", 0},
	{"server.http_floor_us", "us", "lower", 0},
	{"server.query_top_us", "us", "lower", 0},
	{"server.query_contains_us", "us", "lower", 0},
	{"server.query_prefix_us", "us", "lower", 0},
	{"server.query_rollup_us", "us", "lower", 0},
	{"server.query_page_us", "us", "lower", 0},
	{"server.query_resp_mb_per_s", "MB/s", "higher", 0},
	{"server.query_rps", "1/s", "higher", 0},
	{"server.query_p99_ms", "ms", "lower", 0},
	{"server.query_busy_rps", "1/s", "higher", 0},
	{"server.query_busy_p50_ms", "ms", "lower", 0},
	{"server.query_busy_p99_ms", "ms", "lower", 0},
	{"server.open_p50_ms", "ms", "lower", 0},
	{"server.open_p99_ms", "ms", "lower", 0},
	{"server.open_max_late_ms", "ms", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_pct", "%", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"replay.coverage", "ratio", "higher", 0},
}

// reading is one measured metric: the reported value plus, where it is a
// statistic over samples, how many there were and their quartiles.
type reading struct {
	value  float64
	n      int
	q1, q3 float64
}

// readings collects a run's metrics by name.
type readings map[string]reading

// set records a plain value (a count, a ratio, or a single timing).
func (r readings) set(name string, v float64) { r[name] = reading{value: v, n: 1} }

// median records the median of samples with its quartiles.
func (r readings) median(name string, samples []float64) {
	s := sorted(samples)
	r[name] = reading{value: quantile(s, 0.5), n: len(s), q1: quantile(s, 0.25), q3: quantile(s, 0.75)}
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile (0 < p < 1) of an ascending sample by the
// rule Python's statistics.quantiles uses (its default "exclusive" method:
// position p·(n+1), linear interpolation, clamped to the extremes), so the
// quartiles printed here are the ones the acceptance check computes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := p * float64(n+1)
	i := int(h)
	switch {
	case i < 1:
		return s[0]
	case i >= n:
		return s[n-1]
	}
	return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
}

// digest identifies a pattern set independent of order: the pattern count
// plus the wrapping sum of each pattern's FNV-64a hash. Two results agree
// when their digests are equal.
type digest struct {
	count int
	sum   uint64
}

// add folds one pattern into the digest.
func (d *digest) add(items []string, support int64) {
	h := fnv.New64a()
	for i, it := range items {
		if i > 0 {
			h.Write([]byte{' '})
		}
		h.Write([]byte(it))
	}
	h.Write([]byte{'\t'})
	h.Write(strconv.AppendInt(nil, support, 10))
	d.count++
	d.sum += h.Sum64()
}

func (d digest) String() string { return fmt.Sprintf("%d patterns/%016x", d.count, d.sum) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Off
// Linux it falls back to what the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// environment describes the host and build a run was measured on.
func environment(seed int64) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gogc":       gogc,
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
