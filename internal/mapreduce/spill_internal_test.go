package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

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

// checkEncodeRun builds a table from the emits and requires encodeRun's bytes
// equal to the run the definition produces — the aggregated entries sorted by
// cmp.Compare(group) then bytes.Compare(key), the comparator encodeRun itself
// used before it sorted on integer images, kept here as the reference — its
// size equal to the default AggJob.Size summed, and the records a cursor
// reads back to be in strictly ascending cursorLess order (the order the
// merge's heap assumes of a run).
func checkEncodeRun(t *testing.T, emits []triple) {
	t.Helper()
	type groupKey struct {
		group uint32
		key   string
	}
	var tbl byteTable
	sums := map[groupKey]int64{}
	for _, e := range emits {
		tbl.add(e.group, []byte(e.key), e.weight)
		sums[groupKey{e.group, e.key}] += e.weight
	}
	want := make([]triple, 0, len(sums))
	for k, w := range sums {
		want = append(want, triple{k.group, k.key, w})
	}
	slices.SortFunc(want, func(a, b triple) int {
		if c := cmp.Compare(a.group, b.group); c != 0 {
			return c
		}
		return bytes.Compare([]byte(a.key), []byte(b.key))
	})
	var wantEnc []byte
	var wantSize int64
	for _, e := range want {
		wantEnc = binary.AppendUvarint(wantEnc, uint64(e.group))
		wantEnc = binary.AppendUvarint(wantEnc, uint64(len(e.key)))
		wantEnc = append(wantEnc, e.key...)
		wantEnc = binary.AppendVarint(wantEnc, e.weight)
		wantSize += int64(len(e.key) + uvarintLen(uint64(e.weight)))
	}

	size, enc := tbl.encodeRun(nil, nil)
	got, err := readRun(memCursor(enc, tbl.n))
	if err != nil || size != wantSize || !bytes.Equal(enc, wantEnc) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("run of %d records, size %d, read error %v; the definition gives %d records, size %d; first difference at record %d:\n got %q\nwant %q",
			len(got), size, err, len(want), wantSize, i, got[i:min(len(got), i+3)], want[i:min(len(want), i+3)])
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if !cursorLess(&runCursor{group: a.group, key: []byte(a.key)}, &runCursor{group: b.group, key: []byte(b.key)}) {
			t.Fatalf("record %d (%d, %q) does not follow (%d, %q) in cursorLess order", i, b.group, b.key, a.group, a.key)
		}
	}
	// A second encode sorts in the scratch the first one left in the pool, and
	// appends.
	if _, again := tbl.encodeRun([]byte("head"), nil); !bytes.Equal(again, append([]byte("head"), wantEnc...)) {
		t.Fatal("second encodeRun of the same table differs from the first")
	}
}

// orderGroups are the group values the order tests draw from: both ends of
// the range and the sign bit of an int32.
var orderGroups = []uint32{0, 1, 1 << 31, math.MaxUint32}

// TestEncodeRunOrder pins encodeRun's order to the definition on the keys an
// integer image of a 12-byte prefix can get wrong: keys that differ only in
// trailing zero bytes (equal images), keys equal through the prefix and
// differing after it, proper prefixes of each other across the image's two
// word boundaries (bytes 4 and 12), 0xFF bytes (a signed compare), and the
// extreme groups (a group stored below the key bytes, or compared signed).
func TestEncodeRunOrder(t *testing.T) {
	// The record's size is a documented bound on what a flush holds outside
	// Config.MemoryBudget.
	if size := unsafe.Sizeof(sortRec{}); size > 24 {
		t.Fatalf("sortRec is %d bytes, documented as at most 24", size)
	}
	long := "0123456789ab" // exactly the prefix
	keys := []string{
		"", "\x00", "\x00\x00",
		"a", "a\x00", "a\x00\x00", "a\x00\x01", "a\x01", "b",
		"abc", "abcd", "abcde", "abcd\x00", "abc\x00", "abce",
		long[:11], long, long + "c", long + "\x00", long[:11] + "\x00", long[:11] + "\x00\x00",
		long + "cX", long + "cY", long + "d", long + "\xff", long + "c\x00",
		"\xff", "\xff\xff", "\xff\xff\xff\xff", "\xff\xff\xff\xff\xff", "\x7f", "\x80",
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00",
		"\x00\x00\x00\x01", "\x00\x00\x00\x00\x01", "\x01\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01",
	}
	weights := []int64{1, 0, -1, math.MinInt64, math.MaxInt64, 300}
	var table []triple
	for i, k := range keys {
		for j, g := range orderGroups {
			table = append(table, triple{g, k, weights[(i+j)%len(weights)]})
		}
	}
	t.Run("table", func(t *testing.T) { checkEncodeRun(t, table) })
	t.Run("table-reversed", func(t *testing.T) {
		rev := slices.Clone(table)
		slices.Reverse(rev)
		checkEncodeRun(t, append(rev, table[:len(table)/2]...)) // half the entries hit twice
	})
	t.Run("empty", func(t *testing.T) { checkEncodeRun(t, nil) })

	// Random keys over {0x00, 'a', 0xFF} of length 0..15: every pair shares a
	// long prefix, so ties in the image and zero-padding collisions are the
	// common case instead of the rare one.
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			emits := make([]triple, 2000)
			for i := range emits {
				key := make([]byte, rng.Intn(16))
				for j := range key {
					key[j] = "\x00a\xff"[min(rng.Intn(4), 2)]
				}
				group := orderGroups[rng.Intn(len(orderGroups))]
				if seed%2 == 0 {
					group = rng.Uint32() >> uint(rng.Intn(32))
				}
				emits[i] = triple{group, string(key), int64(rng.Intn(7) - 3)}
			}
			checkEncodeRun(t, emits)
		})
	}
}

// FuzzEncodeRunOrder decodes the input into (group, key, weight) emits —
// per emit one byte choosing the group, one whose low four bits are the key
// length, the key bytes, one weight byte — and holds encodeRun to the same
// definition as TestEncodeRunOrder.
func FuzzEncodeRunOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01a\x01\x00\x02a\x00\xff\x00\x03a\x00\x00\x00"))                                   // "a", "a\x00", "a\x00\x00" in one group
	f.Add([]byte("\x03\x0d0123456789abX\x01\x03\x0d0123456789abY\x02\x03\x0c0123456789ab\x03"))            // equal through byte 12
	f.Add([]byte("\x00\x02ab\x01\x00\x02ba\x01\x00\x06aaaaab\x01\x00\x06aaaaba\x01"))                      // byte order inside a word
	f.Add([]byte("\x02\x04\xff\xff\xff\xff\x80\x01\x04\xff\xff\xff\xff\x7f\x90\x00\x00\xa0\x05abcde\x00")) // groups across the sign bit
	f.Fuzz(func(t *testing.T, data []byte) {
		var emits []triple
		for len(data) >= 2 {
			group := uint32(data[0])
			if data[0] < 0x80 {
				group = orderGroups[data[0]%4]
			}
			klen := min(int(data[1]&15), len(data)-2)
			key := data[2 : 2+klen]
			data = data[2+klen:]
			var weight int64
			if len(data) > 0 {
				weight, data = int64(int8(data[0])), data[1:]
			}
			emits = append(emits, triple{group, string(key), weight})
		}
		checkEncodeRun(t, emits)
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
		Name: "corrupt-run",
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
