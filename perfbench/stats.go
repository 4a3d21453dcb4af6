package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 300 samples is three samples' worth
// of noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// and false when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// samples is a distribution of one timing, safe for concurrent adds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// pct is percentile over the distribution; the error names the metric
// the sample cannot support.
func (s *samples) pct(name string, p float64) (float64, error) {
	sorted := s.sorted()
	v, ok := percentile(sorted, p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (need %d beyond it)", name, len(sorted), p*100, minBeyond)
	}
	return v, nil
}

// median is pct(0.5) without the support check, for per-layer
// diagnostics where a handful of calls is all a layer sees; zero
// samples report 0.
func (s *samples) median() float64 {
	if s.n() == 0 {
		return 0
	}
	return medianOf(s.sorted())
}

func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum
}

func (s *samples) mean() float64 {
	if n := s.n(); n > 0 {
		return s.sum() / float64(n)
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally counts operations against the correctness checks. A refusal
// (HTTP 503 backpressure) is a failure: the user did not get the work
// done, however fast the answer came.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	refused   int
	errs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts one operation that failed or did not match its reference.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// refuse counts one operation the service turned away.
func (t *tally) refuse(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.refused++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed + t.refused
}

func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// peakRSSMiB returns the process's peak resident memory so far (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMiB runs a full collection and returns the heap it found
// live: the memory the workload retains, free of the GC-timing noise in
// the resident peak.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocObjects reads the cumulative count of heap objects allocated —
// the per-operation allocation signal that holds across hosts.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
