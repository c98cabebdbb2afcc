package experiments_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/experiments"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/rewrite"
	"lash/internal/stats"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", ""} {
		if _, err := experiments.ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := experiments.ScaleByName("galactic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestByID(t *testing.T) {
	for _, e := range experiments.All {
		got, err := experiments.ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%q) failed: %v", e.ID, err)
		}
	}
	if _, err := experiments.ByID("fig99z"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "ablation",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig4e",
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
		"fig6a", "fig6b", "fig6c",
	}
	if len(experiments.All) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(experiments.All), len(want))
	}
	for _, id := range want {
		if _, err := experiments.ByID(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// TestPaperClaims asserts the qualitative results of §6 that the registry's
// tables print as numbers: who shuffles less, which miner explores fewer
// candidates, which way the output moves with each parameter. It mines the
// unit-scale corpora with the runners' settings and reads deterministic
// counters only — shuffled bytes, candidates explored, pattern counts — never
// wall time, so a claim holds or fails the same on every host.
func TestPaperClaims(t *testing.T) {
	c := experiments.NewContext(testScale())
	s, ctx := c.Scale, context.Background()
	mr := mapreduce.Config{MapTasks: 64, ReduceTasks: 64} // the runners' Context.mr
	text := func(t *testing.T, v datagen.TextHierarchy) *gsm.Database {
		db, err := c.TextDB(v)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	market := func(t *testing.T, levels int) *gsm.Database {
		db, err := c.MarketDB(levels)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	mine := func(t *testing.T, db *gsm.Database, opt core.Options) *core.Result {
		opt.MR = mr
		res, err := core.Mine(ctx, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	patterns := func(t *testing.T, db *gsm.Database, p gsm.Params) int64 {
		return int64(len(mine(t, db, core.Options{Params: p}).Patterns))
	}
	label := func(name string, p gsm.Params) string {
		return fmt.Sprintf("%s(%d,%d,%d)", name, p.Sigma, p.Gamma, p.Lambda)
	}
	// fig6 mines the fig6a runner's 25/50/75/100 % samples of NYT-CLP.
	quarters := []int64{1, 2, 3, 4}
	fig6 := func(t *testing.T) []*core.Result {
		var out []*core.Result
		for _, q := range quarters {
			db := datagen.Sample(text(t, datagen.HierarchyCLP), float64(q)/4)
			out = append(out, mine(t, db, core.Options{Params: gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}}))
		}
		return out
	}

	for _, claim := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"Fig4ab: shuffle naive > semi-naive > LASH", func(t *testing.T) {
			for _, set := range []struct {
				v datagen.TextHierarchy
				p gsm.Params
			}{
				{datagen.HierarchyP, gsm.Params{Sigma: s.SigmaHi, Gamma: 0, Lambda: 3}},
				{datagen.HierarchyP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 3}},
				{datagen.HierarchyP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}},
				{datagen.HierarchyCLP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}},
			} {
				db := text(t, set.v)
				var shuffled []int64
				for _, run := range []func(context.Context, *gsm.Database, baseline.Options) (*core.Result, error){
					baseline.MineNaive, baseline.MineSemiNaive,
				} {
					res, err := run(ctx, db, baseline.Options{Params: set.p, MR: mr, MaxEmit: s.NaiveCap})
					if err != nil {
						t.Fatal(err)
					}
					shuffled = append(shuffled, res.Jobs.Mine.MapOutputBytes)
				}
				shuffled = append(shuffled, mine(t, db, core.Options{Params: set.p}).Jobs.Mine.MapOutputBytes)
				expect(t, label(set.v.String(), set.p)+" bytes naive/semi-naive/LASH", shuffled, above)
			}
		}},
		{"Fig4cd: explored DFS > PSM > PSM+Index, equal output", func(t *testing.T) {
			for _, set := range []struct {
				v datagen.TextHierarchy
				p gsm.Params
			}{
				{datagen.HierarchyLP, gsm.Params{Sigma: s.SigmaHi, Gamma: 0, Lambda: 5}},
				{datagen.HierarchyLP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}},
				{datagen.HierarchyCLP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}},
				{datagen.HierarchyCLP, gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 7}},
			} {
				db, l := text(t, set.v), label(set.v.String(), set.p)
				var explored, output []int64
				for _, k := range []miner.Kind{miner.KindBFS, miner.KindDFS, miner.KindPSMNoIndex, miner.KindPSM} {
					res := mine(t, db, core.Options{Params: set.p, Miner: k})
					explored = append(explored, res.Miner.Explored)
					output = append(output, int64(len(res.Patterns)))
				}
				expect(t, l+" explored DFS/PSM/PSM+Index", explored[1:], above)
				expect(t, l+" patterns BFS/DFS/PSM/PSM+Index", output, equal)
			}
		}},
		{"Fig4e: output MG-FSM = LASH-flat", func(t *testing.T) {
			db := text(t, datagen.HierarchyCLP)
			for _, p := range []gsm.Params{
				{Sigma: s.SigmaLo, Gamma: 1, Lambda: 5},
				{Sigma: s.SigmaXLo, Gamma: 1, Lambda: 5},
				{Sigma: s.SigmaXLo, Gamma: 1, Lambda: 10},
			} {
				var output []int64
				for _, k := range []miner.Kind{miner.KindBFS, miner.KindPSM} {
					output = append(output, int64(len(mine(t, db, core.Options{Params: p, Flat: true, Miner: k}).Patterns)))
				}
				expect(t, label("flat", p)+" patterns MG-FSM/LASH", output, equal)
			}
		}},
		{"Fig5a-e: output monotone in σ, γ, λ, depth", func(t *testing.T) {
			h8 := market(t, 8)
			var bySigma, byGamma, byLambda, byDepth []int64
			for _, sigma := range []int64{s.SigmaXLo, s.SigmaLo, s.SigmaHi, s.SigmaXHi} {
				bySigma = append(bySigma, patterns(t, h8, gsm.Params{Sigma: sigma, Gamma: 1, Lambda: 5}))
			}
			for gamma := 0; gamma <= 3; gamma++ {
				byGamma = append(byGamma, patterns(t, h8, gsm.Params{Sigma: s.SigmaLo, Gamma: gamma, Lambda: 5}))
			}
			for lambda := 3; lambda <= 7; lambda++ {
				byLambda = append(byLambda, patterns(t, h8, gsm.Params{Sigma: s.SigmaXLo, Gamma: 1, Lambda: lambda}))
			}
			for _, lv := range datagen.MarketLevels {
				byDepth = append(byDepth, patterns(t, market(t, lv), gsm.Params{Sigma: s.SigmaLo, Gamma: 2, Lambda: 5}))
			}
			expect(t, "AMZN-h8 patterns by σ ↑", bySigma, atLeast)
			expect(t, "AMZN-h8 patterns by γ ↑", byGamma, atMost)
			expect(t, "AMZN-h8 patterns by λ ↑", byLambda, atMost)
			expect(t, fmt.Sprintf("AMZN patterns by depth %v", datagen.MarketLevels), byDepth, atMost)
		}},
		{"Ablation: shuffle None > GeneralizeOnly > Full, equal output", func(t *testing.T) {
			db := text(t, datagen.HierarchyLP)
			var shuffled, output []int64
			for _, mode := range []rewrite.Mode{rewrite.ModeNone, rewrite.ModeGeneralizeOnly, rewrite.ModeFull} {
				res := mine(t, db, core.Options{Params: gsm.Params{Sigma: s.SigmaLo, Gamma: 1, Lambda: 5}, Rewrites: mode})
				shuffled = append(shuffled, res.Jobs.Mine.MapOutputBytes)
				output = append(output, int64(len(res.Patterns)))
			}
			expect(t, "LP bytes None/GeneralizeOnly/Full", shuffled, above)
			expect(t, "LP patterns None/GeneralizeOnly/Full", output, equal)
		}},
		{"Fig6a: shuffle and partition sequences linear in the data, output at least linear", func(t *testing.T) {
			var shuffled, seqs, perQuarter []int64
			for i, res := range fig6(t) {
				shuffled = append(shuffled, res.Jobs.Mine.MapOutputBytes)
				seqs = append(seqs, res.PartitionSeqs)
				perQuarter = append(perQuarter, int64(len(res.Patterns))*4/quarters[i])
			}
			expectLinear(t, "CLP bytes shuffled by data 25/50/75/100%", quarters, shuffled)
			expectLinear(t, "CLP partition sequences by data 25/50/75/100%", quarters, seqs)
			expect(t, "CLP patterns ÷ data fraction by data 25/50/75/100%", perQuarter, atMost)
		}},
		{"Fig6bc: the largest partition's share falls as the data grows", func(t *testing.T) {
			var seqShare, exploredShare []int64
			for _, res := range fig6(t) {
				var largest, explored int64
				for _, part := range res.Delta.Parts {
					largest, explored = max(largest, part.Explored), explored+part.Explored
				}
				seqShare = append(seqShare, ppm(res.MaxPartitionSeqs, res.PartitionSeqs))
				exploredShare = append(exploredShare, ppm(largest, explored))
			}
			expect(t, "CLP largest partition's ppm of partition sequences by data 25/50/75/100%", seqShare, above)
			expect(t, "CLP largest partition's ppm of explored by data 25/50/75/100%", exploredShare, above)
		}},
		{"Table3: non-trivial share > 0", func(t *testing.T) {
			p := gsm.Params{Sigma: s.SigmaLo, Gamma: 0, Lambda: 5}
			for _, v := range []datagen.TextHierarchy{datagen.HierarchyP, datagen.HierarchyLP, datagen.HierarchyCLP} {
				db := text(t, v)
				o := stats.Compute(db.Forest, mine(t, db, core.Options{Params: p}).Patterns,
					mine(t, db, core.Options{Params: p, Flat: true}).Patterns)
				if o.NonTrivial == 0 {
					t.Errorf("%s: no non-trivial pattern among %d", label(v.String(), p), o.Total)
				}
				t.Logf("%s: %.2f%% of %d patterns non-trivial", label(v.String(), p), o.NonTrivialPct(), o.Total)
			}
		}},
	} {
		t.Run(claim.name, claim.check)
	}
}

// relation is an order between two consecutive readings of a claim.
type relation struct {
	name  string
	holds func(prev, next int64) bool
}

var (
	above   = relation{">", func(a, b int64) bool { return a > b }}
	atLeast = relation{">=", func(a, b int64) bool { return a >= b }}
	atMost  = relation{"<=", func(a, b int64) bool { return a <= b }}
	equal   = relation{"==", func(a, b int64) bool { return a == b }}
)

// expect fails t unless rel holds between every reading and the next, and
// logs the readings either way.
func expect(t *testing.T, what string, readings []int64, rel relation) {
	t.Helper()
	for i := 1; i < len(readings); i++ {
		if !rel.holds(readings[i-1], readings[i]) {
			t.Errorf("%s: %v, want each %s the next", what, readings, rel.name)
			return
		}
	}
	t.Logf("%s: %v", what, readings)
}

// expectLinear fails t unless each reading, taken at quarters[i] quarters of
// the data, stays within a factor of 1.5 of linear in the last one (the
// full data's): that reading scaled by the data fraction.
func expectLinear(t *testing.T, what string, quarters, readings []int64) {
	t.Helper()
	last := len(readings) - 1
	for i, r := range readings {
		if linear := float64(readings[last]) * float64(quarters[i]) / float64(quarters[last]); float64(r) < linear/1.5 || float64(r) > linear*1.5 {
			t.Errorf("%s: %v, want each within 1.5× of %d × its share of the data", what, readings, readings[last])
			return
		}
	}
	t.Logf("%s: %v", what, readings)
}

// ppm is part as parts per million of whole.
func ppm(part, whole int64) int64 { return part * 1_000_000 / whole }

// A scaled-down scale for unit testing the runners end to end.
func testScale() experiments.Scale {
	return experiments.Scale{
		Name:         "unit",
		NYTSentences: 300, NYTLemmas: 200,
		AMZNUsers: 500, AMZNProducts: 300,
		SigmaXHi: 100, SigmaHi: 25, SigmaLo: 6, SigmaXLo: 3,
		NaiveCap: 2_000_000,
		Seed:     7,
	}
}

// Every experiment must run and produce a well-formed table at unit scale.
func TestAllExperimentsRun(t *testing.T) {
	c := experiments.NewContext(testScale())
	for _, e := range experiments.All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s: row width %d != header %d", e.ID, len(row), len(tbl.Header))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Format(&buf); err != nil {
				t.Fatalf("%s: format: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, tbl.Header[0]) {
				t.Fatalf("%s: formatted output malformed:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunAndFormatSelection(t *testing.T) {
	c := experiments.NewContext(testScale())
	var buf bytes.Buffer
	if err := experiments.RunAndFormat(context.Background(), c, []string{"table1", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "table2") {
		t.Fatalf("selection output missing tables:\n%s", out)
	}
	if strings.Contains(out, "fig4a") {
		t.Fatal("unselected experiment ran")
	}
	if err := experiments.RunAndFormat(context.Background(), c, []string{"nope"}, &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
}
