package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"lash/internal/faults"
	"lash/internal/obs"
)

// The shuffle between RunAgg's map and reduce sides is sort → run → merge.
// A map task aggregates into one flat hash table per reduce partition and
// flushes each table as a *sorted run* — its entries ordered by (group, key
// bytes), the reduce delivery order — appended to the owning partition. The
// reduce side k-way merges a partition's runs, re-aggregating equal
// (group, key) entries across runs, and hands every group to Reduce in
// ascending group order with its entries sorted by key and weights summed.
//
// Run record wire format (per aggregated entry, varint-encoded):
//
//	uvarint(group) uvarint(len(key)) key-bytes varint(weight)
//
// A run's bytes have one of two backings, chosen per RunAgg call by
// Config.MemoryBudget and by nothing else. Without a budget a run is a byte
// slice the partition keeps and the merge reads in place. With one it is a
// section of the partition's spill file, read back through a window of at
// most runWindow bytes; spill files live in a fresh directory under
// Config.SpillDir (default os.TempDir()), one per reduce partition, and the
// whole directory is removed when RunAgg returns — on success, error, and
// cancellation alike. Encoder, parser, cursor, heap and merge loop are the
// same code over both.
//
// The flush sort (encodeRun) never orders table slots directly: it copies
// each entry's slot index and a 16-byte integer image of its sort key into a
// sortRec and sorts those, so a comparison is two integer compares on
// records already in cache instead of two slot loads, two arena loads and a
// bytes.Compare. The records are transient scratch — at most
// unsafe.Sizeof(sortRec) = 24 bytes per entry of the one table a worker is
// flushing, pooled across flushes, and like the encoded run beside them not
// part of byteTable.mem(), so outside Config.MemoryBudget.

// runWindow caps the read window of one disk run during the merge.
const runWindow = 1 << 16

// errCorruptRun is the deterministic (never retried) failure of a run whose
// bytes do not parse as exactly its recorded number of records.
var errCorruptRun = errors.New("mapreduce: corrupt spill run")

// sortRec is one table entry as the flush sort sees it: the entry's slot and
// an order-preserving integer image of its sort key — the group in the high
// 32 bits of hi, then the key's first 12 bytes big-endian, zero-padded, in
// the low 32 bits of hi and in lo. Comparing (hi, lo) as unsigned integers
// decides (group, key bytes) order for every pair whose keys differ inside
// those 12 bytes, without touching the table or the arena.
type sortRec struct {
	hi, lo uint64
	slot   int32
}

// sortPrefix is the number of leading key bytes a sortRec carries.
const sortPrefix = 12

// sortScratch pools the sort records of encodeRun across flushes, map tasks
// and runs, so a worker sorts in the same few arrays for as long as it keeps
// flushing. The scratch is never a table's: under a budget tables are
// dropped after each flush, and a scratch that went with them would be
// allocated again for every run.
var sortScratch = sync.Pool{New: func() any { return new([]sortRec) }}

// encodeRun appends t's entries to enc in the run record format, ordered by
// (group, key bytes), and returns with it the entries' total MAP_OUTPUT_BYTES
// size under size (nil: the AggJob.Size default) — one walk of the slot array
// to collect the sort records, and one walk of the sorted records to encode
// and measure.
//
// The sort compares the records' integer images and reads the keys
// themselves only when two images tie. The tie arm is what keeps the order
// exact: zero padding makes "a" and "a\x00" the same image, and keys longer
// than sortPrefix bytes can differ past it; bytes.Compare on the full keys
// settles both, and a tie between distinct entries cannot be equality, so the
// order stays total.
func (t *byteTable) encodeRun(enc []byte, size func(group uint32, keyLen int, weight int64) int) (int64, []byte) {
	if size == nil {
		size = func(_ uint32, keyLen int, weight int64) int { return keyLen + uvarintLen(uint64(weight)) }
	}
	scratch := sortScratch.Get().(*[]sortRec)
	recs := slices.Grow((*scratch)[:0], t.n)
	for i := range t.entries {
		e := &t.entries[i]
		if e.hash == 0 {
			continue
		}
		prefix := t.key(e)
		if len(prefix) < sortPrefix {
			var pad [sortPrefix]byte
			copy(pad[:], prefix)
			prefix = pad[:]
		}
		recs = append(recs, sortRec{
			hi:   uint64(e.group)<<32 | uint64(binary.BigEndian.Uint32(prefix)),
			lo:   binary.BigEndian.Uint64(prefix[4:]),
			slot: int32(i),
		})
	}
	slices.SortFunc(recs, func(a, b sortRec) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return bytes.Compare(t.key(&t.entries[a.slot]), t.key(&t.entries[b.slot]))
	})
	var shuffleBytes int64
	for i := range recs {
		e := &t.entries[recs[i].slot]
		enc = binary.AppendUvarint(enc, uint64(e.group))
		enc = binary.AppendUvarint(enc, uint64(e.klen))
		enc = append(enc, t.key(e)...)
		enc = binary.AppendVarint(enc, e.weight)
		shuffleBytes += int64(size(e.group, int(e.klen), e.weight))
	}
	*scratch = recs
	sortScratch.Put(scratch)
	return shuffleBytes, enc
}

// run is one sorted run of a partition. owner is the map task that wrote
// it, so a retried task's stale runs can be dropped (dropTask) before the
// attempt rewrites them.
type run struct {
	data    []byte // memory backing: the run's bytes; nil on disk
	off     int64  // disk backing: the run is f[off : off+len]
	len     int64
	records int
	owner   int
}

// shufflePart is one partition's runs. mu serializes appends from
// concurrently-flushing map tasks; by the time the partition is reduced,
// every map task has retired, so the merge needs no lock.
type shufflePart struct {
	mu   sync.Mutex
	runs []run
	f    *os.File // disk backing: created by the first append
	off  int64    // end of the last committed run in f
}

// shuffle holds every partition's runs. dir == "" is the memory backing.
// The fields below it are set by openDisk only: the spill fault points, and
// with them the run's spill counters in rc, report physical I/O and stay
// idle on memory runs.
type shuffle struct {
	parts []shufflePart
	rc    *obs.RunCounters

	dir    string
	faults *faults.Registry
}

// newShuffle returns a shuffle on the memory backing with room for one run
// per (map task, partition) — all an unbudgeted run writes.
func newShuffle(reduceTasks, mapTasks int, rc *obs.RunCounters) *shuffle {
	s := &shuffle{parts: make([]shufflePart, reduceTasks), rc: rc}
	for p := range s.parts {
		s.parts[p].runs = make([]run, 0, mapTasks)
	}
	return s
}

// openDisk switches the shuffle to the disk backing: it creates the run's
// private spill directory under baseDir (os.TempDir() when empty) and arms
// the spill fault points.
func (s *shuffle) openDisk(baseDir string, reg *faults.Registry) error {
	dir, err := os.MkdirTemp(baseDir, "lash-spill-")
	if err != nil {
		return fmt.Errorf("mapreduce: create spill dir: %w", err)
	}
	s.dir, s.faults = dir, reg
	return nil
}

// mergeSeconds is the histogram a reduced partition's interval is observed
// into besides its span: lash_spill_merge_seconds when its runs were merged
// from disk, none on the memory backing.
func (s *shuffle) mergeSeconds(o *obs.Run) *obs.Histogram {
	if s.dir == "" {
		return nil
	}
	return o.PipelineMetricsOf().MergeSeconds
}

// cleanup closes every partition file and removes the spill directory with
// everything in it. Safe to call exactly once, after all tasks have retired.
// Failures cannot be returned (cleanup runs on every exit path, after the
// run's error is already decided) but must not vanish either — a close or
// remove error means a temp file or the directory may have leaked, so each
// one is counted into the run's counters (lash_spill_cleanup_errors_total).
func (s *shuffle) cleanup() {
	for p := range s.parts {
		if f := s.parts[p].f; f != nil {
			if err := f.Close(); err != nil {
				s.rc.SpillCleanupErrors.Add(1)
			}
			s.parts[p].f = nil
		}
	}
	if err := os.RemoveAll(s.dir); err != nil {
		s.rc.SpillCleanupErrors.Add(1)
	}
}

// appendRun commits enc — records encoded entries in run order, as
// byteTable.encodeRun produces them — as one run of partition p, tagged
// with the owning map task. The caller accounts shuffle counters; the disk
// backing accounts the spill counters. A run is committed atomically: it
// joins st.runs only after every byte is in place, and a failed file append
// rolls back to the last committed boundary (failRun) so a retried task can
// rewrite it. enc is the caller's to reuse afterwards.
func (s *shuffle) appendRun(p, owner int, enc []byte, records int) error {
	st := &s.parts[p]
	r := run{len: int64(len(enc)), records: records, owner: owner}
	if s.dir == "" {
		r.data = bytes.Clone(enc)
		st.mu.Lock()
		st.runs = append(st.runs, r)
		st.mu.Unlock()
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		f, err := os.CreateTemp(s.dir, fmt.Sprintf("part-%d-", p))
		if err != nil {
			return fmt.Errorf("mapreduce: create spill file: %w", err)
		}
		st.f = f
	}
	if _, err := st.f.WriteAt(enc, st.off); err != nil {
		return failRun(st, fmt.Errorf("mapreduce: write spill run: %w", err))
	}
	// The injection point sits after the write, when the file tail holds a
	// run's worth of uncommitted bytes — the worst case the rollback must
	// handle.
	if err := s.faults.Hit("mapreduce.spill.write"); err != nil {
		s.rc.FaultsInjected.Add(1)
		return failRun(st, fmt.Errorf("mapreduce: write spill run: %w", err))
	}
	r.off = st.off
	st.off += r.len
	st.runs = append(st.runs, r)
	s.rc.SpillRuns.Add(1)
	s.rc.SpillBytes.Add(r.len)
	s.rc.SpillRecords.Add(int64(records))
	return nil
}

// failRun rolls partition st back to its last committed run boundary after
// a failed append by truncating the file to st.off, and returns err. The
// truncate is best effort (it gives the space back — the append may have
// failed for want of it): runs are written and read at explicit offsets, so
// bytes past st.off are never read and the next append overwrites them.
func failRun(st *shufflePart, err error) error {
	_ = st.f.Truncate(st.off)
	return err
}

// dropTask removes every run the given map task has committed, across all
// partitions — called by a retrying attempt before it rewrites them, so a
// partition never merges two copies of one task's output. On disk the dead
// bytes stay in the files unread (runs are addressed by offset, never
// scanned).
func (s *shuffle) dropTask(owner int) {
	for p := range s.parts {
		st := &s.parts[p]
		st.mu.Lock()
		st.runs = slices.DeleteFunc(st.runs, func(r run) bool { return r.owner == owner })
		st.mu.Unlock()
	}
}

// runCursor reads one sorted run record by record. group/key/weight hold
// the record at the cursor; key aliases the window and stays valid until
// the next advance. A memory run's window is the run itself and rest is 0;
// a disk run's window is buf, refilled from the rest bytes at f[off:].
type runCursor struct {
	win  []byte // unparsed bytes in hand
	left int    // records remaining
	f    io.ReaderAt
	off  int64
	rest int64
	buf  []byte

	group  uint32
	key    []byte
	weight int64
}

// next advances the cursor to its next record. Returns false at run end. A
// run that does not hold exactly its recorded number of records within its
// recorded length fails with errCorruptRun; no length read from the run is
// trusted beyond the bytes the run has left.
func (c *runCursor) next() (bool, error) {
	if c.left == 0 {
		if len(c.win) > 0 || c.rest > 0 {
			return false, fmt.Errorf("%w: bytes left after the last record", errCorruptRun)
		}
		return false, nil
	}
	c.left--
	for {
		need, err := c.parse()
		if need == 0 || err != nil {
			return err == nil, err
		}
		if int64(need) > int64(len(c.win))+c.rest {
			return false, fmt.Errorf("%w: record overruns the run", errCorruptRun)
		}
		if err := c.fill(need); err != nil {
			return false, err
		}
	}
}

// parse decodes the record at the head of the window into the cursor and
// consumes it, returning 0. When the window ends inside the record it
// returns a window length that would get further instead.
func (c *runCursor) parse() (need int, err error) {
	w := c.win
	g, n := binary.Uvarint(w)
	if n == 0 {
		return len(w) + 1, nil
	}
	if n < 0 || g > math.MaxUint32 {
		return 0, fmt.Errorf("%w: malformed group", errCorruptRun)
	}
	klen, m := binary.Uvarint(w[n:])
	if m == 0 {
		return len(w) + 1, nil
	}
	// The key, and the weight's at least one byte after it, must fit in what
	// the run has left — checked before klen sizes anything.
	if m < 0 || klen >= uint64(len(w)-n-m)+uint64(c.rest) {
		return 0, fmt.Errorf("%w: key length overruns the run", errCorruptRun)
	}
	n += m
	end := n + int(klen)
	if end >= len(w) {
		return end + 1, nil
	}
	weight, m := binary.Varint(w[end:])
	if m == 0 {
		return len(w) + 1, nil
	}
	if m < 0 {
		return 0, fmt.Errorf("%w: malformed weight", errCorruptRun)
	}
	c.group, c.key, c.weight = uint32(g), w[n:end:end], weight
	c.win = w[end+m:]
	return 0, nil
}

// fill slides the unparsed tail to the front of the cursor's buffer and
// reads the run's next bytes in behind it: a window of runWindow bytes, or
// need if that is more, or whatever the run has left if that is less (the
// caller has checked it has need).
func (c *runCursor) fill(need int) error {
	size := int(min(int64(len(c.win))+c.rest, int64(max(need, runWindow))))
	if cap(c.buf) < size {
		c.buf = append(make([]byte, 0, size), c.win...)
	} else {
		c.buf = append(c.buf[:0], c.win...)
	}
	have := len(c.buf)
	c.buf = c.buf[:size]
	n, err := c.f.ReadAt(c.buf[have:], c.off)
	if n < size-have {
		if err == io.EOF {
			return fmt.Errorf("%w: spill file ends inside the run", errCorruptRun)
		}
		return fmt.Errorf("mapreduce: read spill run: %w", err)
	}
	c.off += int64(n)
	c.rest -= int64(n)
	c.win = c.buf
	return nil
}

// cursorLess orders cursors by their current record's (group, key bytes).
func cursorLess(a, b *runCursor) bool {
	if a.group != b.group {
		return a.group < b.group
	}
	return bytes.Compare(a.key, b.key) < 0
}

// cursorHeap is a min-heap of run cursors keyed by the current record.
type cursorHeap []*runCursor

func (h *cursorHeap) push(c *runCursor) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !cursorLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// fix restores the heap property after the root's record advanced.
func (h *cursorHeap) fix() {
	s := *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && cursorLess(s[l], s[small]) {
			small = l
		}
		if r < len(s) && cursorLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

// popRoot removes the root cursor (its run is exhausted).
func (h *cursorHeap) popRoot() {
	s := *h
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	if len(*h) > 1 {
		h.fix()
	}
}

// mergeRuns k-way merges partition p's sorted runs, re-aggregating equal
// (group, key) entries, and hands each group to reduce with its entries
// sorted by key. reduce may keep the entries only for the duration of the
// call (keys alias a per-group arena). abort is polled between groups for
// cooperative cancellation. The merge is re-runnable — every call reads the
// runs from their start — so a retried reduce task simply merges again;
// once one succeeds the partition's runs are released.
func (s *shuffle) mergeRuns(p int, abort func() bool, reduce func(group uint32, entries []Entry) error) error {
	st := &s.parts[p]
	// Injected merge failures model a read error at merge start.
	if err := s.faults.Hit("mapreduce.spill.merge"); err != nil {
		s.rc.FaultsInjected.Add(1)
		return fmt.Errorf("mapreduce: merge spill runs: %w", err)
	}

	cursors := make([]runCursor, len(st.runs))
	heap := make(cursorHeap, 0, len(st.runs))
	for i, r := range st.runs {
		c := &cursors[i]
		*c = runCursor{win: r.data, left: r.records, f: st.f, off: r.off, rest: r.len - int64(len(r.data))}
		ok, err := c.next()
		if err != nil {
			return err
		}
		if ok {
			heap.push(c)
		}
	}

	var (
		entries []Entry
		arena   []byte
	)
	for len(heap) > 0 {
		if abort() {
			return nil
		}
		group := heap[0].group
		for len(heap) > 0 && heap[0].group == group {
			// Aggregate every run's copy of this (group, key): consume the
			// root, then any new root with the same record.
			off := len(arena)
			arena = append(arena, heap[0].key...)
			key := arena[off:len(arena):len(arena)]
			weight := int64(0)
			for len(heap) > 0 {
				c := heap[0]
				if c.group != group || !bytes.Equal(c.key, key) {
					break
				}
				weight += c.weight
				ok, err := c.next()
				if err != nil {
					return err
				}
				if ok {
					heap.fix()
				} else {
					heap.popRoot()
				}
			}
			entries = append(entries, Entry{Key: key, Weight: weight})
		}
		if err := reduce(group, entries); err != nil {
			return err
		}
		entries, arena = entries[:0], arena[:0]
	}

	// The partition is fully consumed: release its runs' bytes and its file
	// descriptor (the file was only read since its last append, so a close
	// error has nothing to lose) now instead of at run end.
	st.runs = nil
	if st.f != nil {
		_ = st.f.Close()
		st.f = nil
	}
	return nil
}
