package mapreduce_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lash/internal/mapreduce"
)

// wordCount is the canonical MapReduce job in the f-list job's shape: the
// word's interned id is the group, the key is empty, every emit weighs 1,
// and the shuffle's aggregation is the whole reduction.
func wordCount(cfg mapreduce.Config, docs []string) (map[string]int64, *mapreduce.Stats) {
	type outKV struct {
		word string
		n    int64
	}
	ids := map[string]uint32{}
	var words []string
	for _, doc := range docs {
		for _, w := range strings.Fields(doc) {
			if _, ok := ids[w]; !ok {
				ids[w] = uint32(len(words))
				words = append(words, w)
			}
		}
	}
	out, stats, err := mapreduce.RunAgg(context.Background(), cfg, docs, mapreduce.AggJob[string, outKV]{
		Name: "wordcount",
		Map: func(doc string, emit func(uint32, []byte, int64)) {
			for _, w := range strings.Fields(doc) {
				emit(ids[w], nil, 1)
			}
		},
		Hash: func(id uint32, _ []byte) uint32 { return mapreduce.HashUint32(id) },
		Size: func(id uint32, _ int, _ int64) int { return len(words[id]) + 8 },
		Reduce: func(id uint32, entries []mapreduce.Entry, emit func(outKV)) error {
			if len(entries) != 1 || len(entries[0].Key) != 0 {
				return fmt.Errorf("group %d: %d entries, want one with an empty key", id, len(entries))
			}
			emit(outKV{words[id], entries[0].Weight})
			return nil
		},
	})
	if err != nil {
		panic(err)
	}
	m := make(map[string]int64)
	for _, o := range out {
		m[o.word] = o.n
	}
	return m, stats
}

// refWordCount is the sequential reference the substrate's word counts are
// compared against: a plain Go map, no tasks, no shuffle.
func refWordCount(docs []string) map[string]int64 {
	m := make(map[string]int64)
	for _, doc := range docs {
		for _, w := range strings.Fields(doc) {
			m[w]++
		}
	}
	return m
}

var docs = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps",
	"fox and dog and fox",
}

func TestWordCount(t *testing.T) {
	got, stats := wordCount(mapreduce.Config{Workers: 2, MapTasks: 3, ReduceTasks: 2}, docs)
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
	if stats.ReduceInputKeys != int64(len(want)) {
		t.Errorf("ReduceInputKeys = %d, want %d", stats.ReduceInputKeys, len(want))
	}
	if stats.ReduceOutputRecords != int64(len(want)) {
		t.Errorf("ReduceOutputRecords = %d", stats.ReduceOutputRecords)
	}
}

// The same job must give the reference counts for any worker/task
// configuration.
func TestDeterminismAcrossConfigs(t *testing.T) {
	base := refWordCount(docs)
	for _, cfg := range []mapreduce.Config{
		{Workers: 1, MapTasks: 1, ReduceTasks: 1},
		{Workers: 1, MapTasks: 4, ReduceTasks: 3},
		{Workers: 4, MapTasks: 2, ReduceTasks: 8},
		{Workers: 8, MapTasks: 16, ReduceTasks: 1},
	} {
		got, _ := wordCount(cfg, docs)
		if len(got) != len(base) {
			t.Fatalf("cfg %+v: size mismatch", cfg)
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("cfg %+v: %s = %d, want %d", cfg, k, got[k], v)
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	got, stats := wordCount(mapreduce.Config{Workers: 2}, nil)
	if len(got) != 0 || stats.MapInputRecords != 0 {
		t.Fatalf("empty input mishandled: %v %+v", got, stats.Counters)
	}
}

func TestHashHelpers(t *testing.T) {
	if mapreduce.HashBytes([]byte("abc")) == mapreduce.HashBytes([]byte("abd")) {
		t.Error("suspicious byte hash collision")
	}
	seen := map[uint32]bool{}
	for i := uint32(0); i < 1000; i++ {
		seen[mapreduce.HashUint32(i)%64] = true
	}
	if len(seen) < 32 {
		t.Errorf("integer hash poorly distributed: %d/64 buckets", len(seen))
	}
}

// Ordering contract: results arrive grouped by reduce task; a total order
// must be imposed by the caller. Verify sorting yields a stable golden.
func TestResultOrderingContract(t *testing.T) {
	got1, _ := wordCount(mapreduce.Config{Workers: 3, MapTasks: 4, ReduceTasks: 4}, docs)
	got2, _ := wordCount(mapreduce.Config{Workers: 1, MapTasks: 2, ReduceTasks: 7}, docs)
	keys1 := make([]string, 0, len(got1))
	for k := range got1 {
		keys1 = append(keys1, k)
	}
	keys2 := make([]string, 0, len(got2))
	for k := range got2 {
		keys2 = append(keys2, k)
	}
	sort.Strings(keys1)
	sort.Strings(keys2)
	if strings.Join(keys1, ",") != strings.Join(keys2, ",") {
		t.Fatalf("key sets differ: %v vs %v", keys1, keys2)
	}
}
