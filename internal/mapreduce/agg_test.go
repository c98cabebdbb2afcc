package mapreduce_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lash/internal/mapreduce"
)

var errDecode = errors.New("synthetic decode failure")

// aggWordCount is wordCount in the partition+mine job's shape: the word bytes
// are the key, the count is the weight, and a scratch buffer is reused
// across emits (the substrate copies keys it has not seen).
func aggWordCount(cfg mapreduce.Config, docs []string) (map[string]int64, *mapreduce.Stats, error) {
	type outKV struct {
		word string
		n    int64
	}
	out, stats, err := mapreduce.RunAgg(context.Background(), cfg, docs, mapreduce.AggJob[string, outKV]{
		Name: "agg-wordcount",
		Map: func(doc string, emit func(uint32, []byte, int64)) {
			var buf []byte
			for _, w := range strings.Fields(doc) {
				buf = append(buf[:0], w...)
				emit(mapreduce.HashBytes(buf), buf, 1)
			}
		},
		Size: func(_ uint32, keyLen int, _ int64) int { return keyLen + 8 },
		Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(outKV)) error {
			for _, e := range entries {
				emit(outKV{string(e.Key), e.Weight})
			}
			return nil
		},
	})
	if err != nil {
		return nil, stats, err
	}
	m := make(map[string]int64)
	for _, o := range out {
		m[o.word] = o.n
	}
	return m, stats, nil
}

func TestAggWordCount(t *testing.T) {
	got, stats, err := aggWordCount(mapreduce.Config{Workers: 2, MapTasks: 3, ReduceTasks: 2}, docs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"the": 3, "quick": 2, "brown": 1, "fox": 3, "lazy": 1,
		"dog": 3, "jumps": 1, "and": 2,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if stats.MapInputRecords != 4 {
		t.Errorf("MapInputRecords = %d", stats.MapInputRecords)
	}
	if stats.MapOutputBytes <= 0 || stats.MapOutputRecords <= 0 {
		t.Errorf("counters not populated: %+v", stats.Counters)
	}
	if stats.ReduceOutputRecords != int64(len(want)) {
		t.Errorf("ReduceOutputRecords = %d, want %d", stats.ReduceOutputRecords, len(want))
	}
	// Each word hashes to its own group, so groups ≈ distinct words.
	if stats.ReduceInputKeys != int64(len(want)) {
		t.Errorf("ReduceInputKeys = %d, want %d", stats.ReduceInputKeys, len(want))
	}
}

// The substrate must produce exactly the sequential reference's aggregates,
// for any worker/task split.
func TestAggMatchesClassicRun(t *testing.T) {
	ref := refWordCount(docs)
	for _, cfg := range []mapreduce.Config{
		{Workers: 1, MapTasks: 1, ReduceTasks: 1},
		{Workers: 1, MapTasks: 4, ReduceTasks: 3},
		{Workers: 4, MapTasks: 2, ReduceTasks: 8},
		{Workers: 8, MapTasks: 16, ReduceTasks: 1},
	} {
		got, _, err := aggWordCount(cfg, docs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("cfg %+v: size mismatch: %v vs %v", cfg, got, ref)
		}
		for k, v := range ref {
			if got[k] != v {
				t.Errorf("cfg %+v: %s = %d, want %d", cfg, k, got[k], v)
			}
		}
	}
}

// Map-side aggregation must shrink shuffled records to one per (map task,
// distinct key).
func TestAggMapSideAggregation(t *testing.T) {
	many := make([]string, 50)
	for i := range many {
		many[i] = "x x x x"
	}
	_, stats, err := aggWordCount(mapreduce.Config{Workers: 2, MapTasks: 5, ReduceTasks: 2}, many)
	if err != nil {
		t.Fatal(err)
	}
	// 5 map tasks × 1 distinct word → 5 records instead of 200.
	if stats.MapOutputRecords != 5 {
		t.Fatalf("aggregated MapOutputRecords = %d, want 5", stats.MapOutputRecords)
	}
}

func TestAggEmptyInput(t *testing.T) {
	got, stats, err := aggWordCount(mapreduce.Config{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.MapInputRecords != 0 || stats.ReduceInputKeys != 0 {
		t.Fatalf("empty input mishandled: %v %+v", got, stats.Counters)
	}
}

func TestAggSingleWorker(t *testing.T) {
	got, _, err := aggWordCount(mapreduce.Config{Workers: 1, MapTasks: 4, ReduceTasks: 4}, docs)
	if err != nil {
		t.Fatal(err)
	}
	if got["the"] != 3 || got["fox"] != 3 {
		t.Fatalf("single-worker counts wrong: %v", got)
	}
}

// Output order is deterministic for a fixed MapTasks/ReduceTasks split,
// regardless of real parallelism: partitions in order, groups ascending,
// keys in byte order.
func TestAggDeterministicOrder(t *testing.T) {
	run := func(workers int) []string {
		out, _, err := mapreduce.RunAgg(context.Background(),
			mapreduce.Config{Workers: workers, MapTasks: 4, ReduceTasks: 3},
			docs,
			mapreduce.AggJob[string, string]{
				Name: "order",
				Map: func(doc string, emit func(uint32, []byte, int64)) {
					for _, w := range strings.Fields(doc) {
						emit(mapreduce.HashBytes([]byte(w)), []byte(w), 1)
					}
				},
				Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(string)) error {
					for _, e := range entries {
						emit(string(e.Key))
					}
					return nil
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := strings.Join(run(1), ",")
	for _, workers := range []int{2, 4, 8} {
		if got := strings.Join(run(workers), ","); got != want {
			t.Fatalf("workers=%d: order %q != single-worker order %q", workers, got, want)
		}
	}
}

// Entries handed to one Reduce call share the group and arrive sorted by
// key bytes.
func TestAggGroupedSortedEntries(t *testing.T) {
	_, _, err := mapreduce.RunAgg(context.Background(),
		mapreduce.Config{Workers: 3, MapTasks: 4, ReduceTasks: 2},
		docs,
		mapreduce.AggJob[string, struct{}]{
			Name: "grouping",
			Map: func(doc string, emit func(uint32, []byte, int64)) {
				for _, w := range strings.Fields(doc) {
					emit(uint32(len(w)), []byte(w), 1) // group = word length
				}
			},
			Hash: func(group uint32, _ []byte) uint32 { return mapreduce.HashUint32(group) },
			Reduce: func(group uint32, entries []mapreduce.Entry, emit func(struct{})) error {
				for i, e := range entries {
					if uint32(len(e.Key)) != group {
						t.Errorf("group %d got key %q", group, e.Key)
					}
					if i > 0 && string(entries[i-1].Key) >= string(e.Key) {
						t.Errorf("group %d: keys out of order: %q !< %q", group, entries[i-1].Key, e.Key)
					}
				}
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggPanicInMap(t *testing.T) {
	_, _, err := mapreduce.RunAgg(context.Background(),
		mapreduce.Config{Workers: 2, MapTasks: 2, ReduceTasks: 2},
		docs,
		mapreduce.AggJob[string, struct{}]{
			Name: "boom",
			Map: func(doc string, emit func(uint32, []byte, int64)) {
				panic("map exploded")
			},
			Reduce: func(_ uint32, _ []mapreduce.Entry, _ func(struct{})) error { return nil },
		})
	if err == nil {
		t.Fatal("want error from panicking map task")
	}
	for _, frag := range []string{`job "boom"`, "map task", "map exploded"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

func TestAggPanicInReduce(t *testing.T) {
	_, _, err := mapreduce.RunAgg(context.Background(),
		mapreduce.Config{Workers: 2, MapTasks: 2, ReduceTasks: 2},
		docs,
		mapreduce.AggJob[string, struct{}]{
			Name: "boom-reduce",
			Map: func(doc string, emit func(uint32, []byte, int64)) {
				for _, w := range strings.Fields(doc) {
					emit(mapreduce.HashBytes([]byte(w)), []byte(w), 1)
				}
			},
			Reduce: func(_ uint32, _ []mapreduce.Entry, _ func(struct{})) error {
				panic("reduce exploded")
			},
		})
	if err == nil {
		t.Fatal("want error from panicking reduce task")
	}
	for _, frag := range []string{`job "boom-reduce"`, "reduce partition", "reduce exploded"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// An error returned from Reduce must fail the run (first error wins) and
// discard the output.
func TestAggReduceError(t *testing.T) {
	out, _, err := mapreduce.RunAgg(context.Background(),
		mapreduce.Config{Workers: 2, MapTasks: 2, ReduceTasks: 4},
		docs,
		mapreduce.AggJob[string, string]{
			Name: "bad-reduce",
			Map: func(doc string, emit func(uint32, []byte, int64)) {
				for _, w := range strings.Fields(doc) {
					emit(mapreduce.HashBytes([]byte(w)), []byte(w), 1)
				}
			},
			Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(string)) error {
				return errDecode
			},
		})
	if err == nil || !strings.Contains(err.Error(), errDecode.Error()) {
		t.Fatalf("err = %v, want wrapped %v", err, errDecode)
	}
	if out != nil {
		t.Fatalf("output not discarded on error: %v", out)
	}
}
