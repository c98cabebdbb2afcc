package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lash/internal/obs"
)

type triple struct {
	group  uint32
	key    string
	weight int64
}

// readRun drains one cursor: the run's records in order, or its error.
func readRun(c *runCursor) ([]triple, error) {
	var out []triple
	for {
		ok, err := c.next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, triple{c.group, string(c.key), c.weight})
	}
}

// memCursor and diskCursor open the same bytes the two ways mergeRuns does:
// as the window itself, and as a file section behind an empty window.
func memCursor(data []byte, records int) *runCursor {
	return &runCursor{win: data, left: records}
}

func diskCursor(data []byte, records int) *runCursor {
	return &runCursor{left: records, f: bytes.NewReader(data), rest: int64(len(data))}
}

// FuzzRunRecords feeds arbitrary bytes and a record count through the run
// parser on both backings: it must return records or errCorruptRun — never
// panic, never size a buffer beyond the input — and the backings must agree.
// The same input then seeds a random table that must round-trip through
// encodeRun, a memory-backed shuffle and mergeRuns unchanged.
func FuzzRunRecords(f *testing.F) {
	// The adversarial seeds live in testdata/fuzz/FuzzRunRecords.
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 'a', 'b', 6, 1, 0, 3}, uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, records uint16) {
		mem, disk := memCursor(data, int(records)), diskCursor(data, int(records))
		got, err := readRun(mem)
		gotDisk, errDisk := readRun(disk)
		if err != nil && !errors.Is(err, errCorruptRun) {
			t.Fatalf("parser returned %v, want records or errCorruptRun", err)
		}
		if (err == nil) != (errDisk == nil) || !slices.Equal(got, gotDisk) {
			t.Fatalf("backings disagree: memory %d records, err %v; disk %d records, err %v", len(got), err, len(gotDisk), errDisk)
		}
		if err == nil && len(got) != int(records) {
			t.Fatalf("parsed %d records without error, run recorded %d", len(got), records)
		}
		if cap(disk.buf) > len(data) || mem.buf != nil {
			t.Fatalf("window of %d bytes over a %d-byte run (memory window %d)", cap(disk.buf), len(data), cap(mem.buf))
		}

		// Round trip: data drives a random table.
		rng := rand.New(rand.NewSource(int64(len(data))<<16 | int64(records)))
		var tbl byteTable
		want := map[uint32]map[string]int64{}
		for i := 0; i+1 < len(data); i += 2 {
			group := uint32(data[i] % 5)
			key := data[i+1 : min(len(data), i+1+int(data[i]>>5))]
			weight := rng.Int63n(1<<40) - 1<<39
			tbl.add(group, key, weight)
			if want[group] == nil {
				want[group] = map[string]int64{}
			}
			want[group][string(key)] += weight
		}
		if tbl.n == 0 {
			return
		}
		s := newShuffle(1, 1, &obs.RunCounters{})
		_, enc := tbl.encodeRun(nil, nil)
		if err := s.appendRun(0, 0, enc, tbl.n); err != nil {
			t.Fatal(err)
		}
		var last triple
		seen := 0
		err = s.mergeRuns(0, func() bool { return false }, func(group uint32, entries []Entry) error {
			for _, e := range entries {
				cur := triple{group, string(e.Key), e.Weight}
				if seen > 0 && (cur.group < last.group || cur.group == last.group && cur.key <= last.key) {
					return fmt.Errorf("record %v delivered after %v", cur, last)
				}
				if w, ok := want[group][cur.key]; !ok || w != cur.weight {
					return fmt.Errorf("record %v, table holds weight %d (present %v)", cur, w, ok)
				}
				last = cur
				seen++
			}
			return nil
		})
		if err != nil || seen != tbl.n {
			t.Fatalf("round trip delivered %d of %d entries, err %v", seen, tbl.n, err)
		}
	})
}

// TestRunWindowRefill merges a disk run several windows long, holding one
// key longer than a window, and requires it record for record equal to the
// same run read in place.
func TestRunWindowRefill(t *testing.T) {
	var tbl byteTable
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		key := make([]byte, 1+rng.Intn(12))
		rng.Read(key)
		tbl.add(uint32(rng.Intn(50)), key, int64(rng.Intn(9)-4))
	}
	tbl.add(7, bytes.Repeat([]byte("long"), runWindow/2), 1) // 2 windows
	_, enc := tbl.encodeRun(nil, nil)
	if len(enc) < 5*runWindow {
		t.Fatalf("run of %d bytes does not span enough windows", len(enc))
	}
	want, err := readRun(memCursor(enc, tbl.n))
	if err != nil || len(want) != tbl.n {
		t.Fatalf("memory run: %d of %d records, err %v", len(want), tbl.n, err)
	}
	disk := diskCursor(enc, tbl.n)
	got, err := readRun(disk)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("disk run: %d records, err %v; differs from the run read in place", len(got), err)
	}
	if cap(disk.buf) >= len(enc)/2 {
		t.Fatalf("window grew to %d bytes for a %d-byte run", cap(disk.buf), len(enc))
	}
	// The same bytes cut short: the file ends inside the run.
	short := diskCursor(enc, tbl.n)
	short.f = bytes.NewReader(enc[:len(enc)-10])
	if _, err := readRun(short); !errors.Is(err, errCorruptRun) {
		t.Fatalf("truncated spill file: err = %v, want errCorruptRun", err)
	}
}

// TestCorruptRunFailsRun flips the first key-length varint of one committed
// run on disk to a multi-gigabyte value and requires RunAgg to fail with the
// corrupt-run error: no panic, no allocation sized by the length, and — the
// failure being deterministic — no retry.
func TestCorruptRunFailsRun(t *testing.T) {
	dir := t.TempDir()
	corrupted := false
	cfg := Config{Workers: 1, MapTasks: 2, ReduceTasks: 2, MemoryBudget: 1 << 20, SpillDir: dir,
		Retry: RetryPolicy{MaxAttempts: 3}}
	_, stats, err := RunAgg(context.Background(), cfg, []int{0, 1, 2, 3}, AggJob[int, string]{
		Name:            "corrupt-run",
		ReduceRetryable: true,
		Map: func(item int, emit func(uint32, []byte, int64)) {
			emit(uint32(item%2), []byte("a key long enough to overwrite"), 1)
		},
		Hash: func(group uint32, _ []byte) uint32 { return group },
		// One worker reduces partition 0 first; its Reduce corrupts
		// partition 1's file before that partition's merge opens it.
		Reduce: func(group uint32, _ []Entry, _ func(string)) error {
			if group != 0 || corrupted {
				return nil
			}
			corrupted = true
			files, err := filepath.Glob(filepath.Join(dir, "lash-spill-*", "part-1-*"))
			if err != nil || len(files) != 1 {
				return fmt.Errorf("partition 1 spill files: %v, %v", files, err)
			}
			f, err := os.OpenFile(files[0], os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			// Record layout: uvarint(group=1) is one byte; the key length
			// follows at offset 1.
			_, err = f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 1)
			return err
		},
	})
	if !corrupted {
		t.Fatal("partition 0 was never reduced; nothing was corrupted")
	}
	if !errors.Is(err, errCorruptRun) {
		t.Fatalf("err = %v, want errCorruptRun", err)
	}
	if stats.TaskRetries != 0 {
		t.Fatalf("TaskRetries = %d, want 0 (a corrupt run is deterministic)", stats.TaskRetries)
	}
}
