// Package seqdb defines the compact binary on-disk format for sequence
// databases — the input side of mining corpora larger than RAM. The textual
// interchange format (one sequence per line, items by name, plus a separate
// hierarchy file) forces every item through a string: a multi-GB corpus
// becomes a [][]string before the miner sees a single record. The binary
// format instead stores the item dictionary (names + hierarchy edges) once
// up front and every sequence as varint-encoded dense item ids, so a reader
// can stream sequences straight into item-id arenas without materializing
// any per-item strings.
//
// File layout (all integers are unsigned varints unless noted):
//
//	magic      8 bytes "LASHDB01"
//	itemCount
//	itemCount × { nameLen, name bytes, parent+1 }   // 0 = root (no parent)
//	seqCount
//	totalItems                                      // Σ len(sequence)
//	seqCount  × { seqLen, seqLen × item id }
//
// Item ids are dense (0..itemCount-1) and double as the dictionary order, so
// parent references may point forward or backward. totalItems lets ReadAll
// size its arena exactly once. The format is streaming-writable and
// streaming-readable; readers validate every length and id against hard
// bounds before allocating, so truncated or corrupt input fails with an
// error instead of an OOM or a panic. Truncation, trailing garbage, a
// duplicate dictionary name and an out-of-vocabulary id are all errors
// (FuzzReader, FuzzRoundTrip).
package seqdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// Magic identifies a binary sequence database; it is the first 8 bytes of
// every file. The trailing "01" is the format version.
const Magic = "LASHDB01"

// Hard validation bounds: generous for real corpora, tight enough that a
// handful of corrupt bytes cannot claim gigabytes before the first read.
const (
	// MaxItems bounds the dictionary size.
	MaxItems = 1 << 28
	// MaxNameLen bounds a single item name's byte length.
	MaxNameLen = 1 << 16
	// MaxSeqLen bounds a single sequence's item count (matches the decoded
	// bound of internal/seqenc).
	MaxSeqLen = 1 << 24
)

// ErrBadMagic reports that the input does not start with Magic — it is not
// a binary sequence database (or a different format version).
var ErrBadMagic = errors.New("seqdb: bad magic (not a LASHDB01 file)")

// Write encodes db onto w in the binary format. The hierarchy travels with
// the sequences: one file is the whole corpus.
func Write(w io.Writer, db *gsm.Database) error {
	if db == nil || db.Forest == nil {
		return errors.New("seqdb: nil database")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}

	f := db.Forest
	if f.Size() > MaxItems {
		return fmt.Errorf("seqdb: %d items exceeds the format bound %d", f.Size(), MaxItems)
	}
	if err := writeUvarint(uint64(f.Size())); err != nil {
		return err
	}
	for w := 0; w < f.Size(); w++ {
		name := f.Name(hierarchy.Item(w))
		if len(name) > MaxNameLen {
			return fmt.Errorf("seqdb: item %d name is %d bytes, format bound is %d", w, len(name), MaxNameLen)
		}
		if err := writeUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		parent := uint64(0)
		if p := f.Parent(hierarchy.Item(w)); p != hierarchy.NoItem {
			parent = uint64(p) + 1
		}
		if err := writeUvarint(parent); err != nil {
			return err
		}
	}

	if err := writeUvarint(uint64(len(db.Seqs))); err != nil {
		return err
	}
	var total uint64
	for _, seq := range db.Seqs {
		total += uint64(len(seq))
	}
	if err := writeUvarint(total); err != nil {
		return err
	}
	for i, seq := range db.Seqs {
		if len(seq) > MaxSeqLen {
			return fmt.Errorf("seqdb: sequence %d has %d items, format bound is %d", i, len(seq), MaxSeqLen)
		}
		if err := writeUvarint(uint64(len(seq))); err != nil {
			return err
		}
		for _, it := range seq {
			if err := writeUvarint(uint64(it)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes db to path (created or truncated), fsync-free.
func WriteFile(path string, db *gsm.Database) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Reader streams sequences out of a binary database. NewReader consumes the
// header and dictionary eagerly (the dictionary must fit in memory — it is
// vocabulary-sized, not corpus-sized); sequences are then decoded one Next
// call at a time, so corpora need never be resident at once.
type Reader struct {
	br      *bufio.Reader
	forest  *hierarchy.Forest
	items   uint64 // vocabulary size, for id validation
	seqs    uint64 // declared sequence count
	total   uint64 // declared Σ sequence lengths
	read    uint64 // sequences returned so far
	lastErr error
}

// NewReader parses the header and item dictionary from r. Reads are
// buffered internally; r need not be.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	if string(magic) != Magic {
		return nil, ErrBadMagic
	}

	itemCount, err := readBounded(br, MaxItems, "item count")
	if err != nil {
		return nil, err
	}
	// Grow the dictionary by appending rather than trusting the declared
	// count with one big allocation: a corrupt count on a short file then
	// fails at the first missing name instead of pre-allocating gigabytes.
	b := hierarchy.NewBuilder()
	names := make([]string, 0, min(itemCount, 1<<16))
	parents := make([]uint64, 0, min(itemCount, 1<<16))
	for w := uint64(0); w < itemCount; w++ {
		nameLen, err := readBounded(br, MaxNameLen, "name length")
		if err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("seqdb: truncated item name: %w", err)
		}
		names = append(names, string(name))
		parent, err := readBounded(br, itemCount, "parent reference")
		if err != nil {
			return nil, err
		}
		parents = append(parents, parent)
		// Ids are interning order: a duplicate name would silently remap
		// every later id, so reject it.
		if got := b.Add(names[w]); got != hierarchy.Item(w) {
			return nil, fmt.Errorf("seqdb: duplicate item name %q (ids %d and %d)", names[w], got, w)
		}
	}
	for w, p := range parents {
		if p > 0 {
			b.AddEdge(names[w], names[p-1])
		}
	}
	forest, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("seqdb: invalid hierarchy: %w", err)
	}

	seqCount, err := readUvarint(br, "sequence count")
	if err != nil {
		return nil, err
	}
	total, err := readUvarint(br, "total item count")
	if err != nil {
		return nil, err
	}
	return &Reader{br: br, forest: forest, items: itemCount, seqs: seqCount, total: total}, nil
}

// Next decodes the next sequence, appending its items to dst (pass dst[:0]
// to reuse a buffer, or a shared arena to accumulate). It returns io.EOF
// after the last sequence. Once Next returns an error it keeps returning
// it.
func (r *Reader) Next(dst gsm.Sequence) (gsm.Sequence, error) {
	if r.lastErr != nil {
		return dst, r.lastErr
	}
	if r.read == r.seqs {
		// Reaching the declared count exactly is the only clean end.
		r.lastErr = io.EOF
		return dst, io.EOF
	}
	seqLen, err := readBounded(r.br, MaxSeqLen, "sequence length")
	if err != nil {
		r.lastErr = err
		return dst, err
	}
	for i := uint64(0); i < seqLen; i++ {
		id, err := readUvarint(r.br, "item")
		if err != nil {
			r.lastErr = err
			return dst, err
		}
		if id >= r.items {
			r.lastErr = fmt.Errorf("seqdb: item id %d outside the %d-item dictionary", id, r.items)
			return dst, r.lastErr
		}
		dst = append(dst, hierarchy.Item(id))
	}
	r.read++
	return dst, nil
}

// ReadAll decodes every remaining sequence into an arena-backed database:
// items land back to back in large shared chunks (no per-sequence item
// slices, no strings beyond the dictionary), growing with what is actually
// read rather than trusting the header's totalItems with one giant
// allocation. It verifies the trailer is clean: a declared-count shortfall,
// an item-count mismatch, or trailing garbage is an error.
func (r *Reader) ReadAll() (*gsm.Database, error) {
	const chunkItems = 1 << 20
	var (
		seqs  = make([]gsm.Sequence, 0, min(r.seqs-r.read, 1<<16))
		chunk gsm.Sequence
		buf   gsm.Sequence
		total uint64
	)
	for {
		var err error
		buf, err = r.Next(buf[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if total += uint64(len(buf)); total > r.total {
			return nil, fmt.Errorf("seqdb: sequences hold more than the declared %d items", r.total)
		}
		if len(chunk)+len(buf) > cap(chunk) {
			chunk = make(gsm.Sequence, 0, max(len(buf), chunkItems))
		}
		start := len(chunk)
		chunk = append(chunk, buf...)
		seqs = append(seqs, chunk[start:len(chunk):len(chunk)])
	}
	if total != r.total {
		return nil, fmt.Errorf("seqdb: sequences hold %d items, header declared %d", total, r.total)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, errors.New("seqdb: trailing garbage after last sequence")
	}
	return &gsm.Database{Seqs: seqs, Forest: r.forest}, nil
}

// readUvarint reads one varint, annotating truncation with what was being
// read.
func readUvarint(br *bufio.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("seqdb: truncated %s: %w", what, err)
	}
	return v, nil
}

// readBounded reads one varint and rejects values above bound.
func readBounded(br *bufio.Reader, bound uint64, what string) (uint64, error) {
	v, err := readUvarint(br, what)
	if err != nil {
		return 0, err
	}
	if v > bound {
		return 0, fmt.Errorf("seqdb: %s %d exceeds the format bound %d", what, v, bound)
	}
	return v, nil
}
