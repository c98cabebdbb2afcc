package experiments

import (
	"fmt"
	"time"

	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/obs"
)

// Context lazily generates and caches the corpora for one scale, so that a
// sequence of experiments reuses datasets exactly like the paper does.
type Context struct {
	Scale Scale
	// Obs optionally carries a tracer (and/or metrics) threaded into every
	// comparative MapReduce run; RunAndFormat adds one span per experiment
	// and parents the runs' job spans to it (lash-exp's -trace-out).
	Obs *obs.Run

	text      *datagen.TextCorpus
	market    *datagen.MarketCorpus
	textDBs   map[datagen.TextHierarchy]*gsm.Database
	marketDBs map[int]*gsm.Database
}

// NewContext returns an empty context for the scale.
func NewContext(s Scale) *Context {
	return &Context{
		Scale:     s,
		textDBs:   make(map[datagen.TextHierarchy]*gsm.Database),
		marketDBs: make(map[int]*gsm.Database),
	}
}

// mr returns the MapReduce configuration shared by all comparative runs —
// enough tasks for the simulated scheduler to balance — with the context's
// observability hooks attached, so traced runs record job and phase spans.
func (c *Context) mr() mapreduce.Config {
	return mapreduce.Config{MapTasks: 64, ReduceTasks: 64, Obs: c.Obs}
}

// scalingMR is mr with many small tasks, so that the LPT schedule has room
// to spread work when the simulated machine count varies (Fig. 6b/6c).
func (c *Context) scalingMR() mapreduce.Config {
	return mapreduce.Config{MapTasks: 192, ReduceTasks: 192, Obs: c.Obs}
}

// TextDB returns the NYT-like database under the given hierarchy variant.
func (c *Context) TextDB(v datagen.TextHierarchy) (*gsm.Database, error) {
	if db, ok := c.textDBs[v]; ok {
		return db, nil
	}
	if c.text == nil {
		c.text = datagen.GenerateText(datagen.TextConfig{
			Sentences: c.Scale.NYTSentences,
			Lemmas:    c.Scale.NYTLemmas,
			Seed:      c.Scale.Seed,
		})
	}
	db, err := c.text.Build(v)
	if err != nil {
		return nil, fmt.Errorf("experiments: building NYT-%s: %w", v, err)
	}
	c.textDBs[v] = db
	return db, nil
}

// MarketDB returns the AMZN-like database with the given hierarchy depth.
func (c *Context) MarketDB(levels int) (*gsm.Database, error) {
	if db, ok := c.marketDBs[levels]; ok {
		return db, nil
	}
	if c.market == nil {
		c.market = datagen.GenerateMarket(datagen.MarketConfig{
			Users:    c.Scale.AMZNUsers,
			Products: c.Scale.AMZNProducts,
			Seed:     c.Scale.Seed + 1,
		})
	}
	db, err := c.market.Build(levels)
	if err != nil {
		return nil, fmt.Errorf("experiments: building AMZN-h%d: %w", levels, err)
	}
	c.marketDBs[levels] = db
	return db, nil
}

// fmtDur renders a duration like the paper's seconds axes, keeping three
// significant digits at sub-second scale.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders byte counts with binary units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtCount renders large counts with thousands separators.
func fmtCount(n int64) string {
	if n < 0 {
		return "-" + fmtCount(-n)
	}
	s := fmt.Sprintf("%d", n)
	out := make([]byte, 0, len(s)+len(s)/3)
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
