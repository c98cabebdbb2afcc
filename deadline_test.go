package lash_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lash"
)

// TestDeadlineExceededLatency: a run that outlives Options.Deadline must
// fail within well under a second of the deadline firing, with both
// lash.ErrDeadlineExceeded and context.DeadlineExceeded matchable — the
// deadline analogue of the cancellation-latency guarantee.
func TestDeadlineExceededLatency(t *testing.T) {
	db := genDB(t, 50000, 7)
	opt := lash.Options{MinSupport: 2, MaxGap: 2, MaxLength: 5, Deadline: 150 * time.Millisecond}
	begin := time.Now()
	_, err := lash.Mine(db, opt)
	elapsed := time.Since(begin)
	if err == nil {
		// A machine fast enough to mine 50k sequences at these settings in
		// 150ms would make the test vacuous, not wrong.
		t.Skip("run finished before the deadline; nothing to assert")
	}
	if !errors.Is(err, lash.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want lash.ErrDeadlineExceeded in chain", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if latency := elapsed - opt.Deadline; latency > time.Second {
		t.Errorf("run returned %v after its deadline, want < 1s", latency)
	}
}

// TestDeadlinePreExpired: a deadline that fires before mining starts fails
// the run immediately — no result, no patterns, no partial work.
func TestDeadlinePreExpired(t *testing.T) {
	db := genDB(t, 200, 1)
	begin := time.Now()
	res, err := lash.Mine(db, lash.Options{
		MinSupport: 5, MaxGap: 1, MaxLength: 3, Deadline: time.Nanosecond,
	})
	if err == nil || !errors.Is(err, lash.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want lash.ErrDeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("pre-expired run returned a result: %+v", res)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("pre-expired run took %v to fail, want fast rejection", elapsed)
	}

	// The failed run was the snapshot's first, so its f-list job ran under
	// the deadline and counted nothing: the next run on the same snapshot
	// still runs the job — inside its own trace — and the one after reuses
	// the counts.
	var jobs atomic.Int64
	tr := lash.NewTrace()
	opt := countFListJobs(lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3, Trace: tr}, &jobs)
	for i := 0; i < 2; i++ {
		if _, err := lash.Mine(db, opt); err != nil {
			t.Fatal(err)
		}
	}
	if n := jobs.Load(); n != 1 {
		t.Errorf("%d f-list jobs in two runs after the expired one, want 1 (an expired run caches nothing)", n)
	}
	flistSpans := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "job" && sp.Job == "flist" {
			flistSpans++
		}
	}
	if flistSpans != 1 {
		t.Errorf("trace holds %d f-list job spans, want 1 (the job runs under the run's Trace)", flistSpans)
	}
}

// TestDeadlineGenerousNoEffect: a deadline a finished run never reached
// changes nothing — same output as the unbounded run, and the same cache
// key (deadlines are canonicalized away).
func TestDeadlineGenerousNoEffect(t *testing.T) {
	db := genDB(t, 200, 1)
	opt := lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3}
	want, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	bounded := opt
	bounded.Deadline = time.Hour
	got, err := lash.Mine(db, bounded)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePatterns(t, "Patterns", got.Patterns, want.Patterns)
	if got.Explored != want.Explored {
		t.Errorf("Explored = %d, want %d", got.Explored, want.Explored)
	}
	if opt.CacheKey() != bounded.CacheKey() {
		t.Errorf("deadline leaked into the cache key: %q vs %q", bounded.CacheKey(), opt.CacheKey())
	}
}

// TestDeadlineValidation: negative robustness knobs are rejected up front.
func TestDeadlineValidation(t *testing.T) {
	base := lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3}
	neg := base
	neg.Deadline = -time.Second
	if err := neg.Validate(); err == nil {
		t.Error("negative Deadline validated")
	}
	att := base
	att.MaxAttempts = -1
	if err := att.Validate(); err == nil {
		t.Error("negative MaxAttempts validated")
	}
}
