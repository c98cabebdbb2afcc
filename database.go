package lash

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"lash/internal/core"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/seqdb"
)

// Database is an immutable snapshot of a sequence database over an item
// hierarchy, ready for mining. Build one with a DatabaseBuilder, or derive
// the next corpus version from an existing snapshot with Append — the old
// snapshot stays valid and readable (copy-on-append), the new one carries a
// monotonically increasing Version.
//
// A snapshot also keeps its item frequencies once a run has counted them —
// the reuse of §3.4 of the paper ("item frequencies and total order can be
// reused when LASH is run with different parameters; only the generalized
// f-list needs to be adapted") — see "Parameter sweeps" in the package doc.
type Database struct {
	db *gsm.Database
	// version is the corpus version of this snapshot (1 for freshly built
	// databases; the zero value also reads as 1 through Version).
	version int
	// idents is the snapshot's ancestry: one unique identity token per
	// version, idents[v-1] minted by the snapshot that created version v.
	// Two snapshots share a token at version v exactly when they were
	// derived by appends from the same version-v snapshot — so a token
	// match proves the shorter corpus is a byte-identical prefix of the
	// longer one, which is the invariant MineState reuse (Options.Resume)
	// depends on. Appending from an older snapshot simply starts a
	// diverging suffix: both branches keep the common prefix tokens.
	idents []*corpusID
	// hier and flat are the snapshot's lazily counted item frequencies, one
	// per hierarchy mode (AlgorithmLASH mines under the hierarchy; the flat
	// variants ignore it).
	hier, flat freqCache
}

// freqCache is one hierarchy mode's lazily counted frequency slice. The
// slice is shared read-only with every run and never mutated once set.
type freqCache struct {
	mu    sync.Mutex
	freqs []int64
}

// frequencies returns the snapshot's item frequencies for one hierarchy
// mode, on first use running the counting job under ctx and cfg — the
// calling run's own, so its deadline, retries, faults, trace and progress
// hook cover the job. Each mode has its own lock: the first caller counts
// while concurrent callers for that mode wait for its result, and a failed
// count caches nothing, so the next run tries again. The run that paid for
// the job gets its Stats (nil for every other run), for its retry and fault
// counts.
func (d *Database) frequencies(ctx context.Context, flat bool, cfg mapreduce.Config) ([]int64, *mapreduce.Stats, error) {
	c := &d.hier
	if flat {
		c = &d.flat
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.freqs != nil {
		return c.freqs, nil, nil
	}
	freqs, stats, err := core.CountFrequencies(ctx, d.db, flat, cfg)
	if err != nil {
		return nil, nil, err
	}
	c.freqs = freqs
	return freqs, stats, nil
}

// corpusID is a unique per-version identity token; only pointer identity
// matters. The non-zero size guarantees every allocation is distinct.
type corpusID struct{ _ byte }

// newDatabase wraps a built gsm database as corpus version 1 of a fresh
// ancestry.
func newDatabase(db *gsm.Database) *Database {
	return &Database{db: db, version: 1, idents: []*corpusID{new(corpusID)}}
}

// identAt returns the snapshot's identity token for version v, or nil if
// the snapshot's ancestry does not reach v.
func (d *Database) identAt(v int) *corpusID {
	if d == nil || v < 1 || v > len(d.idents) {
		return nil
	}
	return d.idents[v-1]
}

// Version returns the snapshot's corpus version: 1 for a freshly built
// database, incremented by every Append.
func (d *Database) Version() int {
	if d.version == 0 {
		return 1
	}
	return d.version
}

// Append derives the next corpus version: a new immutable snapshot holding
// d's sequences followed by the fragment's, with the fragment's vocabulary
// merged into d's by item name. d itself is not modified and stays fully
// readable. New items (and new hierarchy edges among them, or attaching new
// items under existing ones) are allowed; giving an existing item a new or
// different parent is rejected — ancestor chains of existing items never
// change, which is what keeps delta re-mining (Options.Resume) sound.
//
// Appending twice from the same snapshot forks the history: both results
// are version d.Version()+1, share d as their common prefix, and diverge
// from there. A MineState captured at or before the fork point seeds delta
// re-mines of either branch; states captured on one branch never validate
// on the other.
func (d *Database) Append(fragment *Database) (*Database, error) {
	if d == nil || d.db == nil {
		return nil, fmt.Errorf("lash: append: nil database")
	}
	if fragment == nil || fragment.db == nil {
		return nil, fmt.Errorf("lash: append: nil fragment")
	}
	if len(fragment.db.Seqs) == 0 {
		return nil, fmt.Errorf("lash: append: fragment has no sequences")
	}
	merged, err := mergeAppend(d.db, fragment.db)
	if err != nil {
		return nil, err
	}
	// The ancestry is copied, never shared as a backing array: two appends
	// from the same snapshot must each mint their own version token.
	ids := make([]*corpusID, d.Version()+1)
	copy(ids, d.idents)
	ids[len(ids)-1] = new(corpusID)
	return &Database{db: merged, version: d.Version() + 1, idents: ids}, nil
}

// mergeAppend merges fragment into base by item name: existing items keep
// their ids, levels, and parents (a conflicting fragment parent is an
// error); new items are interned after the existing vocabulary in fragment
// id order; base sequences are shared, fragment sequences are remapped and
// appended.
func mergeAppend(base, frag *gsm.Database) (*gsm.Database, error) {
	bf, ff := base.Forest, frag.Forest
	mapping := make([]hierarchy.Item, ff.Size())
	needRebuild := false
	for w := 0; w < ff.Size(); w++ {
		wi := hierarchy.Item(w)
		name := ff.Name(wi)
		bw, ok := bf.Lookup(name)
		if !ok {
			needRebuild = true
			mapping[w] = hierarchy.NoItem // interned by the rebuild below
			continue
		}
		mapping[w] = bw
		if fp := ff.Parent(wi); fp != hierarchy.NoItem {
			bp := bf.Parent(bw)
			if bp == hierarchy.NoItem || bf.Name(bp) != ff.Name(fp) {
				return nil, fmt.Errorf("lash: append: item %q already exists with a different parent (re-parenting is not allowed)", name)
			}
		}
	}
	newForest := bf
	if needRebuild {
		b := hierarchy.NewBuilder()
		for w := 0; w < bf.Size(); w++ {
			b.Add(bf.Name(hierarchy.Item(w)))
		}
		for w := 0; w < bf.Size(); w++ {
			if p := bf.Parent(hierarchy.Item(w)); p != hierarchy.NoItem {
				b.AddEdge(bf.Name(hierarchy.Item(w)), bf.Name(p))
			}
		}
		for w := 0; w < ff.Size(); w++ {
			b.Add(ff.Name(hierarchy.Item(w)))
		}
		for w := 0; w < ff.Size(); w++ {
			wi := hierarchy.Item(w)
			if mapping[w] != hierarchy.NoItem {
				continue // existing item: parent already verified identical
			}
			if p := ff.Parent(wi); p != hierarchy.NoItem {
				b.AddEdge(ff.Name(wi), ff.Name(p))
			}
		}
		f, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("lash: append: %w", err)
		}
		newForest = f
		for w := range mapping {
			if mapping[w] == hierarchy.NoItem {
				id, ok := newForest.Lookup(ff.Name(hierarchy.Item(w)))
				if !ok {
					return nil, fmt.Errorf("lash: append: internal error: item %q lost in merge", ff.Name(hierarchy.Item(w)))
				}
				mapping[w] = id
			}
		}
	}
	seqs := make([][]hierarchy.Item, 0, len(base.Seqs)+len(frag.Seqs))
	seqs = append(seqs, base.Seqs...)
	for _, t := range frag.Seqs {
		nt := make([]hierarchy.Item, len(t))
		for i, w := range t {
			nt[i] = mapping[w]
		}
		seqs = append(seqs, nt)
	}
	return &gsm.Database{Seqs: seqs, Forest: newForest}, nil
}

// NumSequences returns the number of input sequences.
func (d *Database) NumSequences() int { return len(d.db.Seqs) }

// NumItems returns the vocabulary size (including hierarchy-only items).
func (d *Database) NumItems() int { return d.db.Forest.Size() }

// HierarchyDepth returns the number of hierarchy levels (1 = flat).
func (d *Database) HierarchyDepth() int { return d.db.Forest.Depth() }

// Sequence returns the i-th input sequence as item names.
func (d *Database) Sequence(i int) []string {
	seq := d.db.Seqs[i]
	out := make([]string, len(seq))
	for j, w := range seq {
		out[j] = d.db.Forest.Name(w)
	}
	return out
}

// DatabaseBuilder assembles a Database from sequences and hierarchy edges.
// Items are interned by name; items that never receive a parent are
// hierarchy roots. The zero value is not usable — call NewDatabaseBuilder.
type DatabaseBuilder struct {
	b    *hierarchy.Builder
	seqs [][]hierarchy.Item
}

// NewDatabaseBuilder returns an empty builder.
func NewDatabaseBuilder() *DatabaseBuilder {
	return &DatabaseBuilder{b: hierarchy.NewBuilder()}
}

// AddParent declares that child directly generalizes to parent
// (child → parent). Both items are interned. Declaring two different
// parents for the same child is an error reported by Build (the hierarchy
// must be a forest).
func (d *DatabaseBuilder) AddParent(child, parent string) *DatabaseBuilder {
	d.b.AddEdge(child, parent)
	return d
}

// AddSequence appends one input sequence; unknown items are interned as
// roots.
func (d *DatabaseBuilder) AddSequence(items ...string) *DatabaseBuilder {
	seq := make([]hierarchy.Item, len(items))
	for i, name := range items {
		seq[i] = d.b.Add(name)
	}
	d.seqs = append(d.seqs, seq)
	return d
}

// Build validates the hierarchy (forest shape, no cycles) and returns the
// immutable database.
func (d *DatabaseBuilder) Build() (*Database, error) {
	f, err := d.b.Build()
	if err != nil {
		return nil, err
	}
	return newDatabase(&gsm.Database{Seqs: d.seqs, Forest: f}), nil
}

// BinaryMagic is the 8-byte prefix of the binary database format written by
// WriteBinary (and `lash-gen -format binary`). Callers sniffing an input
// stream can match its first bytes against this to pick the right reader.
const BinaryMagic = seqdb.Magic

// ReadBinaryDatabase decodes a database from the compact binary format:
// item dictionary and hierarchy up front, then varint-encoded sequences,
// decoded straight into shared item-id arenas — no per-item strings, no
// per-sequence allocations — so loading a large corpus costs a small
// constant factor of its file size. Write the format with WriteBinary or
// `lash-gen -format binary`.
func ReadBinaryDatabase(r io.Reader) (*Database, error) {
	sr, err := seqdb.NewReader(r)
	if err != nil {
		return nil, err
	}
	db, err := sr.ReadAll()
	if err != nil {
		return nil, err
	}
	return newDatabase(db), nil
}

// WriteBinary encodes the database (sequences and hierarchy, one file) in
// the compact binary format understood by ReadBinaryDatabase and the lash
// CLI.
func (d *Database) WriteBinary(w io.Writer) error {
	return seqdb.Write(w, d.db)
}

// ReadSequences adds one sequence per line (items separated by spaces or
// tabs) from r. Blank lines and lines starting with '#' are skipped.
func (d *DatabaseBuilder) ReadSequences(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d.AddSequence(strings.Fields(line)...)
	}
	return sc.Err()
}

// ReadHierarchy adds one edge per line ("child<TAB>parent" or
// "child parent") from r. Blank lines and '#' comments are skipped.
func (d *DatabaseBuilder) ReadHierarchy(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("lash: hierarchy line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		d.AddParent(fields[0], fields[1])
	}
	return sc.Err()
}
