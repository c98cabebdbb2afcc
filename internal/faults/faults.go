// Package faults is a deterministic fault-injection registry used to
// exercise the pipeline's failure paths in tests and chaos runs.
//
// Production code calls Hit at named injection points; a nil *Registry
// (the production default) makes Hit a single nil-check branch, so the
// hooks cost nothing when injection is off. Tests arm points by count
// ("fail the Nth hit") or by seeded probability, choosing whether the
// point returns an error or panics.
//
// Injected errors wrap ErrInjected, so callers that classify failures
// (see mapreduce.IsTransient) treat them as transient and retry.
// Injected panics carry the InjectedPanic type, which retry layers
// deliberately do NOT classify as transient: a panic models a
// deterministic crash, not a flaky device.
//
// Point names follow a contract enforced by the lashvet faultpoint
// analyzer: every Hit site names its point with a constant string of the
// form "<package>.<point>" (e.g. "mapreduce.spill.write"), unique within
// the package — constant so chaos tests can arm points by grepping for
// the literal, prefixed so subsystems cannot collide, unique so FailNth
// hit counts are unambiguous.
//
// The package is dependency-free and safe for concurrent use.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel wrapped by every error injected through a
// Registry. errors.Is(err, faults.ErrInjected) identifies a failure as
// synthetic (and therefore transient for retry classification).
var ErrInjected = errors.New("faults: injected fault")

// InjectedPanic is the value thrown by panic-mode injection points.
// Recover sites can detect it with a type assertion.
type InjectedPanic struct {
	// Point is the injection-point name that fired.
	Point string
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %q", p.Point)
}

// Mode selects what an armed point injects.
type Mode int

const (
	// Error makes Hit return an ErrInjected-wrapped error.
	Error Mode = iota
	// Panic makes Hit panic with an InjectedPanic value.
	Panic
)

type point struct {
	mode Mode

	// Count arming: fail on exactly the nth hit (1-based). 0 = disarmed.
	// Firing once — not on every later hit — is what lets a retried
	// task succeed on its next attempt.
	nth int64

	// Probability arming: fail when the seeded PRNG draw < prob.
	prob float64
	rng  uint64 // splitmix64 state; guarded by mu

	hits atomic.Int64

	mu sync.Mutex
}

// Registry maps injection-point names to armed fault behaviors. The
// zero value is ready to use; a nil *Registry disables all points.
type Registry struct {
	mu     sync.Mutex
	points map[string]*point

	injected atomic.Int64
}

// FailNth arms name to inject on exactly its n-th hit (1-based); later
// hits pass, so a retried task's re-execution succeeds. n <= 0 disarms
// the point.
func (r *Registry) FailNth(name string, n int, mode Mode) {
	r.arm(name, &point{mode: mode, nth: int64(n)})
}

// FailProb arms name to inject on each hit independently with
// probability p (clamped to [0, 1]), drawn from a deterministic PRNG
// seeded with seed. Equal seeds give equal injection schedules.
func (r *Registry) FailProb(name string, p float64, seed uint64, mode Mode) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	r.arm(name, &point{mode: mode, prob: p, rng: seed + 0x9e3779b97f4a7c15})
}

// Disarm removes any behavior armed for name. Hit counts survive.
func (r *Registry) Disarm(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.points[name]; ok {
		// Keep the point so its hit count persists, but strip the arming.
		old.mu.Lock()
		old.nth = 0
		old.prob = 0
		old.mu.Unlock()
	}
}

func (r *Registry) arm(name string, p *point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.points == nil {
		r.points = make(map[string]*point)
	}
	if old, ok := r.points[name]; ok {
		// Preserve the hit count across re-arms.
		p.hits.Store(old.hits.Load())
	}
	r.points[name] = p
}

// Hit reports whether the named injection point fires. A nil receiver
// returns nil immediately — the production fast path is one branch.
// Armed error-mode points return an error wrapping ErrInjected; armed
// panic-mode points panic with an InjectedPanic value.
func (r *Registry) Hit(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	p := r.points[name]
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	n := p.hits.Add(1)
	fire := false
	p.mu.Lock()
	if p.nth > 0 && n == p.nth {
		fire = true
	} else if p.prob > 0 {
		// splitmix64: deterministic per-point stream.
		p.rng += 0x9e3779b97f4a7c15
		z := p.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if float64(z>>11)/(1<<53) < p.prob {
			fire = true
		}
	}
	p.mu.Unlock()
	if !fire {
		return nil
	}
	r.injected.Add(1)
	if p.mode == Panic {
		panic(InjectedPanic{Point: name})
	}
	return fmt.Errorf("%w at %q (hit %d)", ErrInjected, name, n)
}

// Injected returns the total number of faults this registry has
// injected (across all points, both modes). Nil-safe.
func (r *Registry) Injected() int64 {
	if r == nil {
		return 0
	}
	return r.injected.Load()
}
