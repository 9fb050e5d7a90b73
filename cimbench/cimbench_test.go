package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// A target that stalls must show the stall in the latency of every
// arrival queued behind it, and the generator must still send each
// arrival on schedule rather than drop or delay it.
func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const (
		n     = 10
		gap   = 10 * time.Millisecond
		stall = 150 * time.Millisecond
	)
	sched := make([]arrival, n)
	for i := range sched {
		sched[i].At = time.Duration(i) * gap
	}
	var mu sync.Mutex // the target serves one request at a time
	start := time.Now()
	out := openLoop(start, sched, func(i int, _ time.Time) error {
		mu.Lock()
		defer mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(out) != n {
		t.Fatalf("%d outcomes, want %d", len(out), n)
	}
	for i, o := range out {
		if o.Done.IsZero() {
			t.Fatalf("arrival %d was never sent", i)
		}
		if late := o.Late(); late > 20*time.Millisecond {
			t.Errorf("arrival %d sent %v late: the stalled target held back the generator", i, late)
		}
		// Every request waits for the stall to end, so its latency from
		// its due time is at least the rest of the stall.
		if want := stall - sched[i].At; o.Latency() < want {
			t.Errorf("arrival %d latency %v, want >= %v", i, o.Latency(), want)
		}
	}
}

// The generator keeps every arrival when it falls behind: with a schedule
// that is entirely due at once, each arrival is still sent exactly once.
func TestOpenLoopNeverDropsArrivals(t *testing.T) {
	sched := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 5000, 200*time.Millisecond, 2, 4)
	if len(sched) < 500 {
		t.Fatalf("schedule has %d arrivals, want about 1000", len(sched))
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	out := openLoop(time.Now().Add(-time.Second), sched, func(i int, _ time.Time) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if len(seen) != len(sched) || len(out) != len(sched) {
		t.Fatalf("sent %d distinct arrivals of %d", len(seen), len(sched))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("arrival %d sent %d times", i, c)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewPCG(7, 7)), 100, time.Second, 2, 8)
	b := poissonSchedule(rand.New(rand.NewPCG(7, 7)), 100, time.Second, 2, 8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if n := float64(len(a)); math.Abs(n-100) > 40 {
		t.Errorf("%v arrivals at 100 rps over 1s", n)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if tl := tailOf(xs); tl.P != 99 || tl.Value != 990 || tl.N != 1000 {
		t.Errorf("tail of 1..1000 = %+v, want p99 = 990", tl)
	}
	if tl := tailOf(xs[:15]); tl.P != 50 || tl.Value != 8 {
		t.Errorf("tail of 1..15 = %+v, want the median 8", tl)
	}
	// A failed request counts as missing every limit.
	xs[999] = math.Inf(1)
	if tl := tailOf(xs); tl.Value != 990 {
		t.Errorf("tail with one failure = %+v", tl)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

func TestDifferentHostShapeIsNotComparable(t *testing.T) {
	h := host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "cpu"}
	if ok, why := h.sameShape(h); !ok {
		t.Fatalf("a host is not comparable with itself: %s", why)
	}
	o := h
	o.NProc = 8
	if ok, _ := h.sameShape(o); ok {
		t.Fatal("hosts with different nproc compared as the same shape")
	}
	o = h
	o.Commit = "other"
	if ok, why := h.sameShape(o); !ok {
		t.Fatalf("a different commit made hosts not comparable: %s", why)
	}
}
