// Command lash-gen generates the synthetic corpora used by the experiment
// harness and writes them as lash-compatible files.
//
// Usage:
//
//	lash-gen -kind text   -out nyt  [-sentences N] [-lemmas N] [-variant CLP]
//	lash-gen -kind market -out amzn [-users N] [-products N] [-levels 8]
//
// With the default -format text, two files are produced: <out>.seq (one
// sequence per line) and <out>.hier (one "child parent" edge per line).
// With -format binary, one compact file <out>.ldb is produced — the binary
// corpus format (dictionary + hierarchy + varint sequences) that the lash
// CLI and lash.ReadBinaryDatabase read without materializing item strings.
package main

import (
	"flag"
	"fmt"
	"os"

	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/seqdb"
)

func main() {
	var (
		kind      = flag.String("kind", "text", "corpus kind: text or market")
		out       = flag.String("out", "corpus", "output file prefix")
		format    = flag.String("format", "text", "output format: text (<out>.seq + <out>.hier) or binary (<out>.ldb)")
		seed      = flag.Int64("seed", 42, "generator seed")
		sentences = flag.Int("sentences", 10000, "text: number of sentences")
		lemmas    = flag.Int("lemmas", 5000, "text: lemma vocabulary size")
		variant   = flag.String("variant", "CLP", "text: hierarchy variant (L, P, LP, CLP)")
		users     = flag.Int("users", 10000, "market: number of user sessions")
		products  = flag.Int("products", 5000, "market: catalogue size")
		levels    = flag.Int("levels", 8, "market: hierarchy levels (2-8)")
	)
	flag.Parse()

	var (
		db  *gsm.Database
		err error
	)
	switch *kind {
	case "text":
		v, verr := parseVariant(*variant)
		if verr != nil {
			fatal(verr)
		}
		corpus := datagen.GenerateText(datagen.TextConfig{Sentences: *sentences, Lemmas: *lemmas, Seed: *seed})
		db, err = corpus.Build(v)
	case "market":
		corpus := datagen.GenerateMarket(datagen.MarketConfig{Users: *users, Products: *products, Seed: *seed})
		db, err = corpus.Build(*levels)
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}
	if err != nil {
		fatal(err)
	}

	st := datagen.Characteristics(db)
	hs := db.Forest.ComputeStats()
	switch *format {
	case "text":
		if err := writeFile(*out+".seq", func(w *os.File) error { return datagen.WriteSequences(w, db) }); err != nil {
			fatal(err)
		}
		if err := writeFile(*out+".hier", func(w *os.File) error { return datagen.WriteHierarchy(w, db.Forest) }); err != nil {
			fatal(err)
		}
		fmt.Printf("lash-gen: wrote %s.seq (%d sequences, avg len %.1f) and %s.hier (%d items, %d levels)\n",
			*out, st.Sequences, st.AvgLength, *out, hs.TotalItems, hs.Levels)
	case "binary":
		if err := seqdb.WriteFile(*out+".ldb", db); err != nil {
			fatal(err)
		}
		fmt.Printf("lash-gen: wrote %s.ldb (%d sequences, avg len %.1f, %d items, %d levels)\n",
			*out, st.Sequences, st.AvgLength, hs.TotalItems, hs.Levels)
	default:
		fatal(fmt.Errorf("unknown format %q (want text or binary)", *format))
	}
}

func parseVariant(s string) (datagen.TextHierarchy, error) {
	switch s {
	case "L":
		return datagen.HierarchyL, nil
	case "P":
		return datagen.HierarchyP, nil
	case "LP":
		return datagen.HierarchyLP, nil
	case "CLP":
		return datagen.HierarchyCLP, nil
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lash-gen:", err)
	os.Exit(1)
}
