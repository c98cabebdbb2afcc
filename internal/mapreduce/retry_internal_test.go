package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"lash/internal/faults"
	"lash/internal/obs"
)

func TestIsTransientClassification(t *testing.T) {
	wrapped := func(err error) error { return errors.Join(errors.New("ctx"), err) }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("decode failure"), false},
		{"transient sentinel", ErrTransient, true},
		{"wrapped transient", wrapped(ErrTransient), true},
		{"injected fault", wrapped(faults.ErrInjected), true},
		{"path error", &os.PathError{Op: "write", Path: "x", Err: errors.New("EIO")}, true},
		{"syscall error", os.NewSyscallError("write", errors.New("ENOSPC")), true},
		{"link error", &os.LinkError{Op: "rename", Old: "a", New: "b", Err: errors.New("EXDEV")}, true},
		{"short write", io.ErrShortWrite, true},
		{"panic", &taskPanicError{val: "boom"}, false},
		// A panic always classifies deterministic, even when its payload
		// would otherwise look transient (a panicking I/O path is a bug).
		{"panic wrapping transient", &taskPanicError{val: ErrTransient}, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	for task := 0; task < 4; task++ {
		d := 2 * time.Millisecond // doubles per attempt up to the 250ms cap
		for attempt := 0; attempt < 10; attempt++ {
			got := backoffDelay(task, attempt)
			if got < d/2 || got >= d {
				t.Fatalf("task %d attempt %d: delay %v outside [%v, %v)", task, attempt, got, d/2, d)
			}
			if again := backoffDelay(task, attempt); again != got {
				t.Fatalf("task %d attempt %d: nondeterministic delay %v != %v", task, attempt, again, got)
			}
			d = min(2*d, 250*time.Millisecond)
		}
	}
	// Different tasks must decorrelate at least somewhere.
	same := true
	for attempt := 0; attempt < 8 && same; attempt++ {
		same = backoffDelay(0, attempt) == backoffDelay(1, attempt)
	}
	if same {
		t.Fatal("tasks 0 and 1 produced identical jitter across all attempts")
	}
}

// TestRetryAfterEmit fails one map attempt after it emitted — unwinding it
// the way a failed mid-task flush does — on both backings. Under the budget
// the failed attempt has already committed runs, which the retry must drop;
// without one its tables are simply rebuilt. Either way the output and the
// shuffle counters are those of a run that never failed.
func TestRetryAfterEmit(t *testing.T) {
	input := []int{0, 1, 2, 3, 4, 5}
	makeJob := func(failOnce bool) AggJob[int, string] {
		return AggJob[int, string]{
			Name: "retry-after-emit",
			Map: func(item int, emit func(uint32, []byte, int64)) {
				for i := 0; i < 50; i++ {
					emit(uint32(i%7), []byte{byte(i % 11), byte(item % 2)}, int64(item+1))
				}
				if item == 3 && failOnce {
					failOnce = false
					panic(attemptFail{fmt.Errorf("synthetic flake: %w", ErrTransient)})
				}
			},
			Reduce: func(group uint32, entries []Entry, emit func(string)) error {
				for _, e := range entries {
					emit(fmt.Sprintf("%d|%x|%d", group, e.Key, e.Weight))
				}
				return nil
			},
		}
	}
	for _, budget := range []int64{0, 64} {
		cfg := Config{Workers: 2, MapTasks: 3, ReduceTasks: 2, MemoryBudget: budget, SpillDir: t.TempDir()}
		want, wantStats, err := RunAgg(context.Background(), cfg, input, makeJob(false))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Retry = RetryPolicy{MaxAttempts: 2}
		got, stats, err := RunAgg(context.Background(), cfg, input, makeJob(true))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("budget %d: retried run delivered %d records that differ from the fault-free run's %d", budget, len(got), len(want))
		}
		if stats.TaskRetries != 1 || stats.MapOutputRecords != wantStats.MapOutputRecords || stats.MapOutputBytes != wantStats.MapOutputBytes {
			t.Errorf("budget %d: TaskRetries=%d shuffled %d/%d, want 1 and %d/%d", budget, stats.TaskRetries,
				stats.MapOutputRecords, stats.MapOutputBytes, wantStats.MapOutputRecords, wantStats.MapOutputBytes)
		}
	}
}

// newDiskShuffle is a shuffle on the disk backing under a test temp dir.
func newDiskShuffle(t *testing.T, reduceTasks int) *shuffle {
	t.Helper()
	s := newShuffle(reduceTasks, 1, &obs.RunCounters{})
	if err := s.openDisk(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCleanupCountsErrors: a close failure during cleanup cannot be returned
// (the run's error is already decided) but must land in the counters.
func TestCleanupCountsErrors(t *testing.T) {
	s := newDiskShuffle(t, 2)
	f, err := os.CreateTemp(s.dir, "part-0-")
	if err != nil {
		t.Fatal(err)
	}
	s.parts[0].f = f
	if err := f.Close(); err != nil { // sabotage: cleanup's Close now fails
		t.Fatal(err)
	}
	s.cleanup()
	if got := s.rc.SpillCleanupErrors.Load(); got != 1 {
		t.Fatalf("SpillCleanupErrors = %d, want 1", got)
	}
	if _, err := os.Stat(s.dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived cleanup: %v", err)
	}
}

// TestFailRunRollback: a failed append truncates the partition file back to
// the last committed boundary, and the next run lands there.
func TestFailRunRollback(t *testing.T) {
	s := newDiskShuffle(t, 1)
	defer s.cleanup()
	st := &s.parts[0]
	if err := s.appendRun(0, 0, []byte("committed"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.f.WriteAt([]byte("partial-failed-run"), st.off); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("synthetic append failure")
	if got := failRun(st, boom); got != boom {
		t.Fatalf("failRun returned %v, want %v", got, boom)
	}
	data, err := os.ReadFile(st.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "committed" {
		t.Fatalf("file = %q after rollback, want %q", data, "committed")
	}
	if err := s.appendRun(0, 0, []byte("next-run"), 1); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(st.f.Name())
	if string(data) != "committednext-run" {
		t.Fatalf("file = %q after rewrite, want %q", data, "committednext-run")
	}
	if len(st.runs) != 2 || st.runs[1].off != int64(len("committed")) {
		t.Fatalf("runs after rewrite: %+v", st.runs)
	}
}

// TestDropTask removes exactly the retrying task's runs, across partitions.
func TestDropTask(t *testing.T) {
	s := newShuffle(2, 1, &obs.RunCounters{})
	s.parts[0].runs = []run{{owner: 0}, {owner: 1}, {owner: 0}}
	s.parts[1].runs = []run{{owner: 1}}
	s.dropTask(0)
	if got := len(s.parts[0].runs); got != 1 || s.parts[0].runs[0].owner != 1 {
		t.Fatalf("partition 0 runs after dropTask(0): %+v", s.parts[0].runs)
	}
	if got := len(s.parts[1].runs); got != 1 {
		t.Fatalf("partition 1 runs after dropTask(0): %+v", s.parts[1].runs)
	}
}
