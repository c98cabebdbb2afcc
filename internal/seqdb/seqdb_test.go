package seqdb_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/seqdb"
)

// testDB builds a small database with a multi-level hierarchy, empty
// sequences, and repeated items.
func testDB(t *testing.T) *gsm.Database {
	t.Helper()
	b := hierarchy.NewBuilder()
	b.AddEdge("a1", "A")
	b.AddEdge("a2", "A")
	b.AddEdge("A", "ROOT")
	b.AddEdge("b1", "B")
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) hierarchy.Item {
		w, ok := f.Lookup(name)
		if !ok {
			t.Fatalf("no item %q", name)
		}
		return w
	}
	return &gsm.Database{
		Forest: f,
		Seqs: []gsm.Sequence{
			{id("a1"), id("b1"), id("a1")},
			{},
			{id("A"), id("a2"), id("ROOT"), id("b1"), id("B")},
			{id("b1")},
		},
	}
}

func encode(t *testing.T, db *gsm.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seqdb.Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newReader(t *testing.T, enc []byte) *seqdb.Reader {
	t.Helper()
	r, err := seqdb.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func assertSameDB(t *testing.T, got, want *gsm.Database) {
	t.Helper()
	if got.Forest.Size() != want.Forest.Size() {
		t.Fatalf("forest size %d, want %d", got.Forest.Size(), want.Forest.Size())
	}
	for w := 0; w < want.Forest.Size(); w++ {
		it := hierarchy.Item(w)
		if got.Forest.Name(it) != want.Forest.Name(it) {
			t.Fatalf("item %d name %q, want %q", w, got.Forest.Name(it), want.Forest.Name(it))
		}
		if got.Forest.Parent(it) != want.Forest.Parent(it) {
			t.Fatalf("item %d parent %d, want %d", w, got.Forest.Parent(it), want.Forest.Parent(it))
		}
	}
	if len(got.Seqs) != len(want.Seqs) {
		t.Fatalf("%d sequences, want %d", len(got.Seqs), len(want.Seqs))
	}
	for i := range want.Seqs {
		if len(got.Seqs[i]) != len(want.Seqs[i]) {
			t.Fatalf("sequence %d length %d, want %d", i, len(got.Seqs[i]), len(want.Seqs[i]))
		}
		for j := range want.Seqs[i] {
			if got.Seqs[i][j] != want.Seqs[i][j] {
				t.Fatalf("sequence %d item %d = %d, want %d", i, j, got.Seqs[i][j], want.Seqs[i][j])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	want := testDB(t)
	enc := encode(t, want)
	if !bytes.HasPrefix(enc, []byte(seqdb.Magic)) {
		t.Fatal("encoded file does not start with the magic")
	}
	r, err := seqdb.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, got, want)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	corpus := datagen.GenerateText(datagen.TextConfig{Sentences: 500, Lemmas: 200, Seed: 7})
	want, err := corpus.Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newReader(t, encode(t, want)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, got, want)
}

func TestFileRoundTrip(t *testing.T) {
	want := testDB(t)
	path := filepath.Join(t.TempDir(), "corpus.ldb")
	if err := seqdb.WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := seqdb.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertSameDB(t, got, want)
}

func TestStreamingNext(t *testing.T) {
	want := testDB(t)
	r := newReader(t, encode(t, want))
	var buf gsm.Sequence
	for i := range want.Seqs {
		var err error
		buf, err = r.Next(buf[:0])
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		if len(buf) != len(want.Seqs[i]) {
			t.Fatalf("sequence %d length %d, want %d", i, len(buf), len(want.Seqs[i]))
		}
	}
	if _, err := r.Next(nil); err != io.EOF {
		t.Fatalf("after last sequence: %v, want io.EOF", err)
	}
	// The error must be sticky.
	if _, err := r.Next(nil); err != io.EOF {
		t.Fatalf("repeated read: %v, want io.EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("LASH"),
		[]byte("LASHDB99 rest of the file"),
		[]byte("#\tsequence text file, not binary\n"),
	} {
		if _, err := seqdb.NewReader(bytes.NewReader(in)); !errors.Is(err, seqdb.ErrBadMagic) {
			t.Fatalf("input %q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestTruncation(t *testing.T) {
	enc := encode(t, testDB(t))
	// Every strict prefix must fail — either at header parse or at
	// ReadAll — never succeed and never panic.
	for cut := 0; cut < len(enc); cut++ {
		r, err := seqdb.NewReader(bytes.NewReader(enc[:cut]))
		if err != nil {
			continue
		}
		if _, err := r.ReadAll(); err == nil {
			t.Fatalf("truncation at %d of %d bytes read successfully", cut, len(enc))
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	enc := append(encode(t, testDB(t)), 0x7)
	r, err := seqdb.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); err == nil {
		t.Fatal("trailing garbage read successfully")
	}
}

func TestCorruptRejected(t *testing.T) {
	enc := encode(t, testDB(t))
	// Flip each byte after the magic in a few positions; the reader must
	// either error out or produce a database that still validates — it must
	// never panic or accept out-of-vocabulary items.
	for pos := len(seqdb.Magic); pos < len(enc); pos++ {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0xff
		r, err := seqdb.NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		db, err := r.ReadAll()
		if err != nil {
			continue
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("corrupt byte %d produced an invalid database: %v", pos, err)
		}
	}
}
