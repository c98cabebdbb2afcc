package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
)

// partitionStats are the per-run statistics assembled from the partition
// records; every run mode must report the same ones for the same input.
type partitionStats struct {
	NumPartitions                   int
	PartitionSeqs, MaxPartitionSeqs int64
	Explored, Output                int64
}

func statsOf(res *core.Result) partitionStats {
	return partitionStats{res.NumPartitions, res.PartitionSeqs, res.MaxPartitionSeqs, res.Miner.Explored, res.Miner.Output}
}

// The one reduce path serves batch, delta and retried runs: at a scale the
// oracle cannot reach (TestOracleMatrix is the oracle-sized counterpart),
// each must mine the batch run's patterns and report identical partition
// statistics to its reference — the batch run, or for a delta run a batch
// run ranked in the order it kept (core.MineUnder) — but for a delta run's
// Explored, which its grown partitions (none under BFS) leave lower.
func TestRunModesAgree(t *testing.T) {
	params := gsm.Params{Sigma: 8, Gamma: 1, Lambda: 4}
	mr := mapreduce.Config{Workers: 4, MapTasks: 7, ReduceTasks: 5}
	ctx := context.Background()
	sawReuse := false
	for seed := int64(1); seed <= 3; seed++ {
		db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 250, Lemmas: 150, Seed: seed}).Build(datagen.HierarchyCLP)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindBFS} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				opt := core.Options{Params: params, Miner: kind, MR: mr}
				batch, err := core.Mine(ctx, db, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := batch.Patterns
				if len(want) == 0 || batch.NumPartitions == 0 {
					t.Fatal("test vacuous: nothing to mine")
				}
				if batch.Delta == nil {
					t.Error("batch run returned no state")
				}

				prefix := &gsm.Database{Seqs: db.Seqs[:len(db.Seqs)-10], Forest: db.Forest}
				v1, err := core.Mine(ctx, prefix, opt)
				if err != nil {
					t.Fatal(err)
				}
				rOpt := opt
				rOpt.Prev = v1.Delta
				resumed, err := core.Mine(ctx, db, rOpt)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.DeltaDirty+resumed.DeltaReused != resumed.NumPartitions {
					t.Errorf("resumed run: %d dirty + %d reused != %d partitions",
						resumed.DeltaDirty, resumed.DeltaReused, resumed.NumPartitions)
				}
				sawReuse = sawReuse || (resumed.DeltaReused > 0 && resumed.DeltaDirty > 0)
				if grows := kind != miner.KindBFS; grows != (resumed.DeltaGrown > 0) {
					t.Errorf("resumed %s run grew %d partitions", kind, resumed.DeltaGrown)
				}

				// The mining job's second reduce task fails once (the first
				// ReduceTasks hits of the point belong to the f-list job).
				retried, err := core.Mine(ctx, db, withReduceFault(opt))
				if err != nil {
					t.Fatal(err)
				}
				if retried.Jobs.Mine.TaskRetries != 1 || retried.Jobs.Mine.FaultsInjected != 1 {
					t.Errorf("retried run: %d retries, %d faults in the mining job; want 1 and 1",
						retried.Jobs.Mine.TaskRetries, retried.Jobs.Mine.FaultsInjected)
				}

				ordered, err := core.MineUnder(ctx, db, opt, resumed.Delta.Order)
				if err != nil {
					t.Fatal(err)
				}

				for _, m := range []struct {
					name     string
					res, ref *core.Result
				}{{"resume", resumed, ordered}, {"retried", retried, batch}} {
					if !gsm.EqualPatterns(m.res.Patterns, want) {
						t.Errorf("%s: patterns diverge from the batch run's:\n%s", m.name, gsm.DiffPatterns(db.Forest, m.res.Patterns, want))
					}
					got, want := statsOf(m.res), statsOf(m.ref)
					// A grown partition explores only what its appended
					// sequences reach (v1 is cold: no state in the chain grew).
					if got.Explored > want.Explored || (m.res.DeltaGrown == 0 && got.Explored != want.Explored) {
						t.Errorf("%s: explored %d after growing %d partitions, batch run %d", m.name, got.Explored, m.res.DeltaGrown, want.Explored)
					}
					if got.Explored = want.Explored; got != want {
						t.Errorf("%s: partition statistics %+v, batch run has %+v", m.name, got, want)
					}
				}
			})
		}
	}
	if !sawReuse {
		t.Fatal("test vacuous: no resumed run both spliced and re-mined partitions")
	}
}

// A cancelled batch run aborts inside the partition being mined, not at its
// end: with one hot partition mined last, a cancel landing while it is mined
// must stop the run before that partition's local mining completes.
func TestCancelAbortsInsideHotPartition(t *testing.T) {
	// Three items; γ and λ are wide enough that almost every sequence over
	// them is frequent. Partition r holds the patterns over items 0..r that
	// contain item r, so the last one dwarfs the other two together
	// (3^k − 2^k against 2^k − 1 patterns of length k).
	const lambda = 13
	rng := rand.New(rand.NewSource(1))
	forest := hierarchy.Flat([]string{"a", "b", "c"})
	db := &gsm.Database{Forest: forest}
	for i := 0; i < 120; i++ {
		seq := make(gsm.Sequence, 24)
		for j := range seq {
			// Skewed, so the rank order (and the hot pivot) is not a tie-break.
			seq[j] = hierarchy.Item(min(rng.Intn(6)/2, rng.Intn(3)))
		}
		db.Seqs = append(db.Seqs, seq)
	}
	pm := obs.NewPipelineMetrics(obs.NewRegistry())
	opt := core.Options{
		Params: gsm.Params{Sigma: 2, Gamma: 24, Lambda: lambda},
		// One worker and one reduce task: the partitions are mined one after
		// the other in rank order, the hot one last.
		MR: mapreduce.Config{Workers: 1, MapTasks: 1, ReduceTasks: 1, Obs: &obs.Run{Metrics: pm}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for pm.PartitionsMined.Value() < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let the hot partition get going
		cancel()
	}()
	_, err := core.Mine(ctx, db, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (the hot partition finished before the cancel landed?)", err)
	}
	if n := pm.PartitionsMined.Value(); n != 3 {
		t.Fatalf("%d partitions entered, want 3: the cancel did not land inside the hot one", n)
	}
	// The miner counters record completed local mines only. The two cold
	// partitions output fewer than 2^(λ+1) patterns between them.
	if out := pm.MinerOutput.Value(); out >= 1<<(lambda+1) {
		t.Errorf("miner output counter = %d: the hot partition was mined to its end after the cancel", out)
	}
}
