package faults

import (
	"errors"
	"sync"
	"testing"
)

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if err := r.Hit("any.point"); err != nil {
		t.Fatalf("nil registry Hit = %v, want nil", err)
	}
	if got := r.Injected(); got != 0 {
		t.Fatalf("nil registry Injected = %d, want 0", got)
	}
}

// fires reports whether the next hit of name is its n-th: it arms the
// point to fail on hit n and hits it once.
func fires(r *Registry, name string, n int) bool {
	r.FailNth(name, n, Error)
	return r.Hit(name) != nil
}

func TestUnarmedPoint(t *testing.T) {
	r := new(Registry)
	for i := 0; i < 10; i++ {
		if err := r.Hit("pkg.unarmed"); err != nil {
			t.Fatalf("unarmed Hit = %v, want nil", err)
		}
	}
	if !fires(r, "pkg.unarmed", 1) {
		t.Fatal("first hit after arming was not hit 1: a never-armed point was tracked")
	}
}

func TestFailNthFiresExactlyOnce(t *testing.T) {
	r := new(Registry)
	r.FailNth("pkg.point", 3, Error)
	for i := 1; i <= 5; i++ {
		err := r.Hit("pkg.point")
		if i == 3 {
			if err == nil {
				t.Fatalf("hit %d: want injected error", i)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, not ErrInjected", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: err = %v, want nil (fires only on the 3rd)", i, err)
		}
	}
	if got := r.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestFailNthPanicMode(t *testing.T) {
	r := new(Registry)
	r.FailNth("pkg.crash", 1, Panic)
	defer func() {
		v := recover()
		ip, ok := v.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want InjectedPanic", v, v)
		}
		if ip.Point != "pkg.crash" {
			t.Fatalf("panic point = %q, want pkg.crash", ip.Point)
		}
		if got := r.Injected(); got != 1 {
			t.Fatalf("Injected = %d, want 1", got)
		}
	}()
	_ = r.Hit("pkg.crash")
	t.Fatal("Hit did not panic")
}

func TestFailProbDeterministic(t *testing.T) {
	const n = 1000
	run := func(seed uint64) []bool {
		r := new(Registry)
		r.FailProb("pkg.p", 0.25, seed, Error)
		out := make([]bool, n)
		for i := range out {
			out[i] = r.Hit("pkg.p") != nil
		}
		return out
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: same seed diverged", i)
		}
		if a[i] {
			fired++
		}
	}
	// 0.25 ± generous slack over 1000 draws.
	if fired < 150 || fired > 350 {
		t.Fatalf("p=0.25 fired %d/%d times, outside [150,350]", fired, n)
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFailProbClamped(t *testing.T) {
	r := new(Registry)
	r.FailProb("pkg.always", 2.0, 1, Error)
	for i := 0; i < 5; i++ {
		if err := r.Hit("pkg.always"); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d with p clamped to 1: err = %v", i, err)
		}
	}
	r.FailProb("pkg.never", -1, 1, Error)
	for i := 0; i < 5; i++ {
		if err := r.Hit("pkg.never"); err != nil {
			t.Fatalf("hit %d with p clamped to 0: err = %v", i, err)
		}
	}
}

func TestDisarmKeepsCounters(t *testing.T) {
	r := new(Registry)
	r.FailNth("pkg.d", 1, Error)
	if err := r.Hit("pkg.d"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed hit: err = %v", err)
	}
	r.Disarm("pkg.d")
	if err := r.Hit("pkg.d"); err != nil {
		t.Fatalf("disarmed hit: err = %v, want nil", err)
	}
	if !fires(r, "pkg.d", 3) {
		t.Fatal("hit count did not survive disarm: the third hit did not fire")
	}
}

func TestRearmPreservesCounters(t *testing.T) {
	r := new(Registry)
	r.FailNth("pkg.r", 1, Error)
	_ = r.Hit("pkg.r")
	if !fires(r, "pkg.r", 2) {
		t.Fatal("hit count did not survive re-arm: the second hit did not fire")
	}
}

func TestConcurrentHits(t *testing.T) {
	r := new(Registry)
	r.FailNth("pkg.c", 50, Error)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	var mu sync.Mutex
	injected := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < per; i++ {
				if r.Hit("pkg.c") != nil {
					local++
				}
			}
			mu.Lock()
			injected += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if injected != 1 {
		t.Fatalf("count-armed point fired %d times under concurrency, want exactly 1", injected)
	}
	if !fires(r, "pkg.c", goroutines*per+1) {
		t.Fatalf("hit %d did not fire: concurrent hits were miscounted", goroutines*per+1)
	}
}
