package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"lash/internal/faults"
	"lash/internal/obs"
)

// ErrTransient marks an error as transient for retry classification: task
// errors matching errors.Is(err, ErrTransient) are re-executed under
// Config.Retry. Job code can wrap it to request a retry for failure modes
// the built-in classifier (IsTransient) does not know about.
var ErrTransient = errors.New("mapreduce: transient failure")

// RetryPolicy controls task re-execution on transient failures (see
// Config.Retry). The zero policy disables retries (MaxAttempts 1).
type RetryPolicy struct {
	// MaxAttempts is the total number of executions one task may get,
	// first attempt included. <= 1 disables retries.
	MaxAttempts int
}

// The delay before a task's first re-execution is baseBackoff; each further
// attempt doubles it, capped at maxBackoff. The actual sleep is jittered
// deterministically into [d/2, d) from the task index and the attempt
// number, so concurrent retries decorrelate without shared RNG state.
const (
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 250 * time.Millisecond
)

// IsTransient classifies a task failure: transient failures are worth
// re-executing (the task's inputs are intact and the failure came from the
// environment), deterministic ones are not (re-running the same code on the
// same input would fail the same way).
//
// Transient: errors marked with ErrTransient, injected faults
// (faults.ErrInjected), I/O errors from the OS (*os.PathError,
// *os.SyscallError, *os.LinkError — ENOSPC, EIO, ...), and short writes.
// Deterministic: recovered panics (including panic-mode injected faults)
// and everything else — decode errors, user-logic errors.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var pe *taskPanicError
	if errors.As(err, &pe) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, faults.ErrInjected) {
		return true
	}
	var pathErr *os.PathError
	if errors.As(err, &pathErr) {
		return true
	}
	var sysErr *os.SyscallError
	if errors.As(err, &sysErr) {
		return true
	}
	var linkErr *os.LinkError
	if errors.As(err, &linkErr) {
		return true
	}
	return errors.Is(err, io.ErrShortWrite)
}

// taskPanicError is a recovered task panic converted to an error so the
// retry loop can classify it (always deterministic — a panic models a bug,
// not a flaky device). Error() reproduces guard's historical panic
// annotation, stack captured at the panic point.
type taskPanicError struct {
	val   any
	stack []byte
}

func (e *taskPanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.val, e.stack)
}

// attemptFail unwinds one task attempt from inside an emit callback (which
// cannot return an error) carrying the failure. runAttempt converts it back
// into the attempt's error, so the retry loop sees it like any returned
// error — unlike taskAborted, which marks cancellation and retires the task
// silently.
type attemptFail struct{ err error }

// runAttempt executes one attempt of a task body, converting every failure
// shape into an error: a returned error stays as-is, an attemptFail panic
// becomes its carried error, any other panic becomes a *taskPanicError.
// The taskAborted sentinel is re-thrown for guard's outer recover.
func runAttempt(fn func(task, attempt int) error, task, attempt int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case taskAborted:
				panic(v)
			case attemptFail:
				err = v.err
			default:
				err = &taskPanicError{val: r, stack: debug.Stack()}
			}
		}
	}()
	return fn(task, attempt)
}

// guard wraps one task body with cancellation, panic recovery, and — when
// pol allows more than one attempt — transient-failure retry. The body is
// invoked as fn(task, attempt); each attempt must rebuild its own state
// (attempt-scoped output discard is the body's contract). A deterministic
// failure, or the last allowed attempt's failure, is annotated with the job
// name, phase, and task index and recorded as the run's error; the abort
// sentinel retires the task quietly. Retries are counted into rc, and
// backoff sleeps observe ctx.
func guard(ctx context.Context, errs *errOnce, pol RetryPolicy, rc *obs.RunCounters, jobName, phase string, fn func(task, attempt int) error) func(int) {
	return func(task int) {
		if errs.canceled.Load() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(taskAborted); ok {
					return
				}
				panic(r) // unreachable: runAttempt converts everything else
			}
		}()
		for attempt := 0; ; attempt++ {
			err := runAttempt(fn, task, attempt)
			if err == nil {
				return
			}
			if attempt+1 >= pol.MaxAttempts || !IsTransient(err) {
				errs.set(fmt.Errorf("mapreduce: job %q: %s task %d: %w", jobName, phase, task, err))
				return
			}
			// The run may have been cancelled (or failed elsewhere) while
			// this attempt ran — don't burn backoff time on a dead run.
			if errs.canceled.Load() {
				return
			}
			rc.TaskRetries.Add(1)
			if !sleepCtx(ctx, backoffDelay(task, attempt)) {
				return
			}
			if errs.canceled.Load() {
				return
			}
		}
	}
}

// backoffDelay computes the attempt'th re-execution delay: exponential
// growth from baseBackoff capped at maxBackoff, jittered deterministically
// into [d/2, d) by hashing (task, attempt).
func backoffDelay(task, attempt int) time.Duration {
	d := baseBackoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= maxBackoff {
			d = maxBackoff
			break
		}
	}
	// splitmix64 over the (task, attempt) pair.
	z := (uint64(task)+1)*0x9e3779b97f4a7c15 ^ (uint64(attempt)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := 0.5 + 0.5*float64(z>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
