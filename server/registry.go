package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lash"
	"lash/internal/faults"
	"lash/internal/obs"
)

// DatabaseSpec describes a database to load into the registry. Exactly one
// source must be given: server-side files (SequencesFile, gated by the
// server's DataDir), inline Sequences, or a built-in Generator. A hierarchy
// is optional in all cases — without one, items are flat roots.
type DatabaseSpec struct {
	// Name registers the database under a unique handle.
	Name string `json:"name"`

	// SequencesFile / HierarchyFile are paths relative to the server's data
	// directory (one sequence / one "child parent" edge per line). Rejected
	// when the server was started without a data directory.
	SequencesFile string `json:"sequences_file,omitempty"`
	HierarchyFile string `json:"hierarchy_file,omitempty"`

	// Sequences / Hierarchy carry the same line-oriented formats inline.
	Sequences []string `json:"sequences,omitempty"`
	Hierarchy []string `json:"hierarchy,omitempty"`

	// Generator selects a built-in synthetic corpus: "text" (NYT-style, with
	// a syntactic hierarchy) or "market" (Amazon-style, with a category
	// hierarchy).
	Generator string `json:"generator,omitempty"`
	// Size scales the generator: sentences for "text", users for "market"
	// (0 = the generator's default of 1000, at most 1 << 20).
	Size int `json:"size,omitempty"`
	// TextHierarchy picks the "text" hierarchy variant: L, P, LP or CLP.
	TextHierarchy string `json:"text_hierarchy,omitempty"`
	// Levels is the "market" category depth, 2..8 (0 = 8).
	Levels int `json:"levels,omitempty"`
	// Seed makes generation deterministic.
	Seed int64 `json:"seed,omitempty"`
}

// DatabaseInfo describes a registered database at its latest corpus
// version. Version starts at 1 and increments with every append
// (POST /v1/databases/{name}/sequences); the sequence/item counts describe
// the latest version, while older versions stay readable through
// version-qualified mining and pattern queries.
type DatabaseInfo struct {
	Name           string    `json:"name"`
	Source         string    `json:"source"`
	Version        int       `json:"version"`
	NumSequences   int       `json:"num_sequences"`
	NumItems       int       `json:"num_items"`
	HierarchyDepth int       `json:"hierarchy_depth"`
	CreatedAt      time.Time `json:"created_at"`
	UpdatedAt      time.Time `json:"updated_at"`
}

// registry holds named databases shared by all requests. Every corpus
// version is an immutable snapshot — an append installs a new version next
// to the old ones — so concurrent mining jobs read whichever version they
// were submitted against without locking.
type registry struct {
	dataDir string // "" disables file-based specs
	// loadSeconds, when set, observes how long each registration spent
	// loading/generating its corpus (nil-safe; server.New wires it to
	// lash_corpus_load_seconds).
	loadSeconds *obs.Histogram
	// versionsTotal, when set, counts every corpus version installed —
	// registrations and appends alike (lash_corpus_versions_total).
	versionsTotal *obs.Counter
	// faults, when non-nil, arms the registry's corpus-loading injection
	// point for chaos tests (see internal/faults). Nil in production.
	faults *faults.Registry

	mu    sync.RWMutex
	dbs   map[string]*dbEntry
	order []string // registration order, for stable listings
}

// dbEntry is one named database's version history. versions[v-1] is the
// immutable snapshot of corpus version v; info describes the latest.
// appendMu serializes appends per database — the merge itself runs outside
// the registry lock, so a slow append never blocks reads or other
// databases — while the registry's mu guards versions/info for readers.
type dbEntry struct {
	appendMu sync.Mutex
	versions []*lash.Database
	info     DatabaseInfo
}

func newRegistry(dataDir string) *registry {
	return &registry{dataDir: dataDir, dbs: make(map[string]*dbEntry)}
}

// add loads the database described by spec and registers it. It returns
// errBadSpec-wrapped errors for malformed specs and errConflict when the
// name is taken.
func (r *registry) add(spec DatabaseSpec) (DatabaseInfo, error) {
	if spec.Name == "" {
		return DatabaseInfo{}, fmt.Errorf("%w: database name is required", errBadSpec)
	}
	r.mu.RLock()
	_, taken := r.dbs[spec.Name]
	r.mu.RUnlock()
	if taken {
		return DatabaseInfo{}, fmt.Errorf("%w: database %q already exists", errConflict, spec.Name)
	}

	begin := time.Now()
	db, source, err := r.load(spec)
	if err != nil {
		return DatabaseInfo{}, err
	}
	r.loadSeconds.Observe(time.Since(begin).Seconds())
	return r.install(spec.Name, source, db)
}

// install registers an already-built database as version 1 under name.
func (r *registry) install(name, source string, db *lash.Database) (DatabaseInfo, error) {
	now := time.Now().UTC()
	info := DatabaseInfo{
		Name:           name,
		Source:         source,
		Version:        db.Version(),
		NumSequences:   db.NumSequences(),
		NumItems:       db.NumItems(),
		HierarchyDepth: db.HierarchyDepth(),
		CreatedAt:      now,
		UpdatedAt:      now,
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.dbs[name]; taken {
		return DatabaseInfo{}, fmt.Errorf("%w: database %q already exists", errConflict, name)
	}
	r.dbs[name] = &dbEntry{versions: []*lash.Database{db}, info: info}
	r.order = append(r.order, name)
	r.versionsTotal.Inc()
	return info, nil
}

// append installs the next corpus version of the named database: the
// fragment is merged onto the latest version (outside the registry lock —
// merging can rebuild the vocabulary) and the result published as version
// latest+1. Appends to one database serialize; every prior version stays
// readable. The fragment's sequences and vocabulary are validated by
// lash.Database.Append (errBadSpec on rejection).
func (r *registry) append(name string, frag *lash.Database) (DatabaseInfo, error) {
	r.mu.RLock()
	e, ok := r.dbs[name]
	r.mu.RUnlock()
	if !ok {
		return DatabaseInfo{}, fmt.Errorf("%w %q", errDBMissing, name)
	}

	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	r.mu.RLock()
	base := e.versions[len(e.versions)-1]
	r.mu.RUnlock()

	next, err := base.Append(frag)
	if err != nil {
		return DatabaseInfo{}, fmt.Errorf("%w: %v", errBadSpec, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e.versions = append(e.versions, next)
	e.info.Version = next.Version()
	e.info.NumSequences = next.NumSequences()
	e.info.NumItems = next.NumItems()
	e.info.HierarchyDepth = next.HierarchyDepth()
	e.info.UpdatedAt = time.Now().UTC()
	r.versionsTotal.Inc()
	return e.info, nil
}

// load builds the database outside the registry lock (loading can be slow).
func (r *registry) load(spec DatabaseSpec) (*lash.Database, string, error) {
	// Sequences come from exactly one source; hierarchy data (file and/or
	// inline, which merge) rides along with either non-generator source.
	fromGen := spec.Generator != ""
	seqSources := 0
	for _, has := range []bool{spec.SequencesFile != "", len(spec.Sequences) > 0, fromGen} {
		if has {
			seqSources++
		}
	}
	switch {
	case seqSources == 0:
		return nil, "", fmt.Errorf("%w: one of sequences_file, sequences or generator is required", errBadSpec)
	case seqSources > 1:
		return nil, "", fmt.Errorf("%w: sequences_file, sequences and generator are mutually exclusive", errBadSpec)
	case fromGen && (spec.HierarchyFile != "" || len(spec.Hierarchy) > 0):
		return nil, "", fmt.Errorf("%w: generator cannot be combined with hierarchy data", errBadSpec)
	}

	// Chaos hook: a corpus-load failure (bad disk, truncated file) at the
	// moment the spec validated and real loading begins. Surfaces as the
	// registration's error — a server-side failure, not a bad request.
	if err := r.faults.Hit("server.corpus.load"); err != nil {
		return nil, "", fmt.Errorf("loading database %q: %w", spec.Name, err)
	}

	if fromGen {
		db, err := r.generate(spec)
		if err != nil {
			return nil, "", err
		}
		return db, "generator:" + spec.Generator, nil
	}

	b := lash.NewDatabaseBuilder()
	if len(spec.Hierarchy) > 0 {
		if err := b.ReadHierarchy(strings.NewReader(strings.Join(spec.Hierarchy, "\n"))); err != nil {
			return nil, "", fmt.Errorf("%w: inline hierarchy: %v", errBadSpec, err)
		}
	}
	if spec.HierarchyFile != "" {
		if err := r.readFile(spec.HierarchyFile, b.ReadHierarchy); err != nil {
			return nil, "", err
		}
	}
	source := "inline"
	if len(spec.Sequences) > 0 {
		if err := b.ReadSequences(strings.NewReader(strings.Join(spec.Sequences, "\n"))); err != nil {
			return nil, "", fmt.Errorf("%w: inline sequences: %v", errBadSpec, err)
		}
	} else {
		source = "file:" + spec.SequencesFile
		if err := r.readFile(spec.SequencesFile, b.ReadSequences); err != nil {
			return nil, "", err
		}
	}
	db, err := b.Build()
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", errBadSpec, err)
	}
	return db, source, nil
}

// maxGeneratedSequences caps DatabaseSpec.Size: at ≈ 35 bytes a sequence in
// .ldb form it is what maxBodyBytes already lets an upload carry.
const maxGeneratedSequences = 1 << 20

func (r *registry) generate(spec DatabaseSpec) (*lash.Database, error) {
	if spec.Size > maxGeneratedSequences {
		return nil, fmt.Errorf("%w: generator size %d exceeds %d", errBadSpec, spec.Size, maxGeneratedSequences)
	}
	switch spec.Generator {
	case "text":
		db, err := lash.GenerateTextDatabase(lash.TextConfig{
			Sentences: spec.Size,
			Hierarchy: spec.TextHierarchy,
			Seed:      spec.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadSpec, err)
		}
		return db, nil
	case "market":
		db, err := lash.GenerateMarketDatabase(lash.MarketConfig{
			Users:           spec.Size,
			HierarchyLevels: spec.Levels,
			Seed:            spec.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadSpec, err)
		}
		return db, nil
	}
	return nil, fmt.Errorf("%w: unknown generator %q (want text or market)", errBadSpec, spec.Generator)
}

// readFile resolves path inside the data directory and feeds the file to
// read. File access is disabled entirely when no data directory was
// configured, and paths may not escape it.
func (r *registry) readFile(path string, read func(io.Reader) error) error {
	if r.dataDir == "" {
		return fmt.Errorf("%w: file loading is disabled (start lashd with -data)", errBadSpec)
	}
	if filepath.IsAbs(path) {
		return fmt.Errorf("%w: path %q must be relative to the data directory", errBadSpec, path)
	}
	full := filepath.Join(r.dataDir, filepath.Clean(path))
	rel, err := filepath.Rel(r.dataDir, full)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return fmt.Errorf("%w: path %q escapes the data directory", errBadSpec, path)
	}
	f, err := os.Open(full)
	if err != nil {
		return fmt.Errorf("%w: %v", errBadSpec, err)
	}
	defer f.Close()
	if err := read(f); err != nil {
		return fmt.Errorf("%w: %s: %v", errBadSpec, path, err)
	}
	return nil
}

// get returns the named database's latest corpus version.
func (r *registry) get(name string) (*lash.Database, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.dbs[name]
	if !ok {
		return nil, false
	}
	return e.versions[len(e.versions)-1], true
}

// getVersion returns one specific corpus version of the named database
// (version 0 means latest). The bool results distinguish "no such database"
// from "no such version".
func (r *registry) getVersion(name string, version int) (db *lash.Database, dbOK, verOK bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.dbs[name]
	if !ok {
		return nil, false, false
	}
	if version == 0 {
		return e.versions[len(e.versions)-1], true, true
	}
	if version < 1 || version > len(e.versions) {
		return nil, true, false
	}
	return e.versions[version-1], true, true
}

// info returns the named database's metadata.
func (r *registry) infoFor(name string) (DatabaseInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.dbs[name]
	if !ok {
		return DatabaseInfo{}, false
	}
	return e.info, true
}

// list returns all registered databases in registration order.
func (r *registry) list() []DatabaseInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatabaseInfo, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.dbs[name].info)
	}
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.dbs)
}
