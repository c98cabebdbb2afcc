package lash

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lash/internal/hierarchy"
)

// This file fuzzes the library's own decoders of untrusted input — the text
// corpus parser and the append merge — under one invariant: an error or a
// faithful database, never a panic. Seeds live in testdata/fuzz.

// corpusLines reads the line formats the slow way: the fields of every line
// that is neither blank nor a '#' comment.
func corpusLines(text string) [][]string {
	var lines [][]string
	for _, line := range strings.Split(text, "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && fields[0][0] != '#' {
			lines = append(lines, fields)
		}
	}
	return lines
}

// buildText is the path every text corpus takes into the library.
func buildText(edges, sequences string) (*Database, error) {
	b := NewDatabaseBuilder()
	if err := b.ReadHierarchy(strings.NewReader(edges)); err != nil {
		return nil, err
	}
	if err := b.ReadSequences(strings.NewReader(sequences)); err != nil {
		return nil, err
	}
	return b.Build()
}

// FuzzReadCorpusText: a text corpus is rejected, or the database holds its
// lines field for field and its edges as written.
func FuzzReadCorpusText(f *testing.F) {
	for _, seed := range [][2]string{
		{"b1 B\nb2 B\n", "a b1 a\na b2 c\na b1 b2\n"}, {"", "a"}, {"", ""}, {"# edges\n\nb1\tB\r\n", "# corpus\r\n\r\n a \t b1 \r\n"},
		{"a b c", "a"}, {"a", "a"}, {"a a", "a"}, {"a b\nb a", "a b"}, {"a b\na c", "a"}, {"a b\na b", "a"},
		{"x #y", "#x y\n x #y"}, {"\xff \xfe", "\xff\x00 \xfe"}, {"a b c", "a bc"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, edges, sequences string) {
		db, err := buildText(edges, sequences)
		if err != nil {
			return
		}
		want := corpusLines(sequences)
		if db.NumSequences() != len(want) {
			t.Fatalf("%d sequences from %d lines of %q", db.NumSequences(), len(want), sequences)
		}
		for i, fields := range want {
			if got := db.Sequence(i); !slices.Equal(got, fields) {
				t.Fatalf("sequence %d is %q, the line reads %q", i, got, fields)
			}
		}
		for _, edge := range corpusLines(edges) {
			if len(edge) != 2 {
				t.Fatalf("hierarchy line %q was accepted", edge)
			}
			if parent, ok := db.ItemParent(edge[0]); !ok || parent != edge[1] {
				t.Fatalf("parent of %q is %q (%v), the line reads %q", edge[0], parent, ok, edge[1])
			}
		}
	})
}

// FuzzMergeAppend: appending a fragment is rejected, or yields the next
// version with the base's sequences, item ids, parents and levels untouched
// and the fragment's sequences after them — and a mine resumed from the
// base's state equals a cold mine of the result, the invariant delta
// mining's reuse-grow-re-mine rule rests on. Its partition statistics equal
// a from-scratch mine under the item order it kept (mineUnder), with
// Explored only at most that count when a partition was grown; its drift is
// finite.
func FuzzMergeAppend(f *testing.F) {
	for _, seed := range [][4]string{
		// Grows partitions: the appended sequences repeat base content, and
		// the rank order of the old items does not move.
		{"c1 C\nc2 C", "a c1 b a\na c2 b\nb a c1\na c1 b c2", "", "a c1 b\nb a c2 a"},
		{"b1 B\nb2 B", "a b1 a\na b2 c\na b1 b2", "", "a b1\nc a"}, {"b1 B\nb2 B", "a b1 a\na b2 c\na b1 b2", "b3 B\nd D", "a b3 d\nb3 d a"},
		{"b1 B", "a b1\na b1", "b1 B", "b1 a"}, {"b1 B", "a b1", "b1 C", "b1"}, {"", "a b", "a b", "a"}, {"b B", "a b", "B A", "a b"},
		{"", "a b\na b", "", "a b"}, {"", "a b\na b", "", "x y\nx y"}, {"", "a", "", ""}, {"", "", "", "a"},
		{"c B\nB A", "a c a c\nc a\na c", "d B\ne d", "e a e\na e\nd d d d"}, {"", "a a a\na a", "", "a a a a a"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, baseEdges, baseSequences, fragEdges, fragSequences string) {
		base, err := buildText(baseEdges, baseSequences)
		if err != nil {
			return
		}
		frag, err := buildText(fragEdges, fragSequences)
		if err != nil {
			return
		}
		next, err := base.Append(frag)
		if err != nil {
			return
		}
		if next.Version() != base.Version()+1 || next.NumSequences() != base.NumSequences()+frag.NumSequences() {
			t.Fatalf("version %d with %d sequences from version %d with %d and a fragment of %d",
				next.Version(), next.NumSequences(), base.Version(), base.NumSequences(), frag.NumSequences())
		}
		for i, seq := range base.db.Seqs {
			if !slices.Equal(next.db.Seqs[i], seq) {
				t.Fatalf("base sequence %d changed from %v to %v", i, seq, next.db.Seqs[i])
			}
		}
		for i := 0; i < frag.NumSequences(); i++ {
			if got, want := next.Sequence(base.NumSequences()+i), frag.Sequence(i); !slices.Equal(got, want) {
				t.Fatalf("fragment sequence %d appended as %q, want %q", i, got, want)
			}
		}
		bf, nf := base.db.Forest, next.db.Forest
		for i := range bf.Size() {
			w := hierarchy.Item(i)
			if nf.Name(w) != bf.Name(w) || nf.Parent(w) != bf.Parent(w) || nf.Level(w) != bf.Level(w) {
				t.Fatalf("item %d (%q, parent %d, level %d) became (%q, parent %d, level %d)", w,
					bf.Name(w), bf.Parent(w), bf.Level(w), nf.Name(w), nf.Parent(w), nf.Level(w))
			}
		}

		// Deep hierarchies multiply the output (every item generalizes at
		// every level); mine what a fuzz iteration can afford.
		items := 0
		for _, seq := range next.db.Seqs {
			items += len(seq)
		}
		if items > 200 || next.HierarchyDepth() > 4 {
			return
		}
		opt := Options{MinSupport: 2, MaxGap: 1, MaxLength: 3, Workers: 1}
		before, err := Mine(base, opt)
		if err != nil {
			t.Fatal(err)
		}
		// resume mines db from state and holds it to a cold mine, and its
		// statistics to one under its order; grown counts the partitions that
		// the states it descends from grew.
		resume := func(db *Database, state *MineState, grown int64) *Result {
			t.Helper()
			cold, err := Mine(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			ropt := opt
			ropt.Resume = state
			resumed, err := Mine(db, ropt)
			if err != nil {
				t.Fatal(err)
			}
			grown += resumed.Stats.DeltaPartitionsGrown
			ordered, err := mineUnder(db, opt, resumed.State.delta.Order)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resumed.Patterns, cold.Patterns) || !reflect.DeepEqual(resumed.FrequentItems, cold.FrequentItems) ||
				resumed.NumPartitions != ordered.NumPartitions || resumed.Explored > ordered.Miner.Explored || (grown == 0 && resumed.Explored != ordered.Miner.Explored) {
				t.Fatalf("resumed mine: %d patterns, %d partitions, %d explored (%d grown)\n%v\ncold mine: %d patterns\n%v\nunder its order: %d partitions, %d explored",
					len(resumed.Patterns), resumed.NumPartitions, resumed.Explored, grown, resumed.Patterns,
					len(cold.Patterns), cold.Patterns, ordered.NumPartitions, ordered.Miner.Explored)
			}
			if d := resumed.State.Drift(); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("drift %v", d)
			}
			if st := resumed.Stats; int(st.DeltaPartitionsDirty+st.DeltaPartitionsReused) != resumed.NumPartitions || st.DeltaPartitionsGrown > st.DeltaPartitionsDirty {
				t.Fatalf("%d dirty (%d grown) + %d reused != %d partitions", st.DeltaPartitionsDirty, st.DeltaPartitionsGrown, st.DeltaPartitionsReused, resumed.NumPartitions)
			}
			return resumed
		}
		resume(next, before.State, 0)

		// The same fragment in two appends: the second resume starts from the
		// first one's state, which keeps the inputs of the partitions it mined.
		half := frag.NumSequences() / 2
		if half == 0 {
			return
		}
		split := func(lo, hi int) *Database {
			b := NewDatabaseBuilder()
			if err := b.ReadHierarchy(strings.NewReader(fragEdges)); err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				b.AddSequence(frag.Sequence(i)...)
			}
			part, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return part
		}
		mid, err := base.Append(split(0, half))
		if err != nil {
			t.Fatalf("first half of an appendable fragment: %v", err)
		}
		last, err := mid.Append(split(half, frag.NumSequences()))
		if err != nil {
			t.Fatalf("second half of an appendable fragment: %v", err)
		}
		first := resume(mid, before.State, 0)
		resume(last, first.State, first.Stats.DeltaPartitionsGrown)
	})
}
