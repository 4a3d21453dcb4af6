package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileRefusesUnsupportedTail(t *testing.T) {
	sorted := make([]float64, 500)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); ok {
		t.Fatalf("p99 of 500 samples = %v; only 5 lie beyond it, want a refusal", v)
	}
	if v, ok := percentile(sorted, 0.98); !ok || v != 490 {
		t.Fatalf("p98 of 500 samples = %v, %v; want 490 with 10 beyond it", v, ok)
	}
	if _, ok := percentile(sorted[:99], 0.90); ok {
		t.Fatal("p90 of 99 samples accepted; 9 lie beyond it")
	}
	if v, ok := percentile(sorted[:100], 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90", v, ok)
	}
}

// TestOpenLoopCountsFromDueTime stalls the first of five requests on a
// single sender: the four due behind it must be charged the wait.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond, 8 * time.Millisecond}
	lat := make([]time.Duration, len(dues))
	start := time.Now().Add(time.Millisecond)
	lags := runOpenLoop(start, dues, 1, func(i int, due time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		lat[i] = time.Since(due)
	})
	for i := 1; i < len(dues); i++ {
		if min := stall - dues[i]; lat[i] < min {
			t.Errorf("request %d: latency %v, want at least %v queued behind the stall", i, lat[i], min)
		}
		if lags[i] < stall-dues[i] {
			t.Errorf("request %d: generator lag %v, want at least %v", i, lags[i], stall-dues[i])
		}
	}
}

// TestOpenLoopSendsOnTime checks that the generator itself is not a
// source of latency: with an idle sender, each arrival goes out within
// a fraction of the millisecond Go's timers can oversleep by.
func TestOpenLoopSendsOnTime(t *testing.T) {
	dues := make([]time.Duration, 40)
	for i := range dues {
		dues[i] = time.Duration(i) * 3 * time.Millisecond
	}
	lags := runOpenLoop(time.Now().Add(time.Millisecond), dues, 1, func(int, time.Time) {})
	var s samples
	for _, l := range lags {
		s.add(us(l))
	}
	if m := s.median(); m > 400 {
		t.Fatalf("median generator lag %.0f us, want well under a millisecond", m)
	}
}

func TestSelfTimeSubtractsOverlapOnce(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	children := []interval{
		{ms(10), ms(40)},
		{ms(30), ms(60)},  // overlaps the first: 10..60 is covered once
		{ms(20), ms(25)},  // inside both
		{ms(90), ms(120)}, // runs past the parent: clipped at 100
		{ms(-5), ms(0)},   // before the parent: ignored
	}
	if got, want := selfTime(0, ms(100), children), ms(40); got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}

	tr := newTracer()
	parent := tr.Start("parent", 1, 0)
	a := tr.Start("child", 1, parent)
	b := tr.Start("child", 1, parent)
	tr.End(a)
	tr.End(b)
	tr.End(parent)
	total, self := tr.Total("parent").median(), tr.Self("parent").median()
	if self < 0 || self > total {
		t.Fatalf("traced parent: self %v outside [0, total %v]", self, total)
	}
	if n := tr.Total("child").n(); n != 2 {
		t.Fatalf("%d child spans recorded, want 2", n)
	}
}

func TestErrorRateCountsRefusals(t *testing.T) {
	var tl tally
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail("mismatch")
	tl.refuse("503")
	tl.refuse("503")
	a, f := tl.counts()
	if a != 10 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 10 and 3", a, f)
	}
	if r := tl.errorRate(); r != 0.3 {
		t.Fatalf("error rate %v, want 0.3", r)
	}
}

// TestHostSpeedCancelsUniformSlowdown runs the same pass on a host 30%
// slower throughout: the operations and the reference probes slow
// alike, so the gated timings must not move, while a slower program on
// the same host must show in full.
func TestHostSpeedCancelsUniformSlowdown(t *testing.T) {
	mk := func(host, program float64) *pass {
		p := &pass{setupS: 0.01 * host * program}
		for i := 0; i < 100; i++ {
			p.ops.add(float64(4+i%7) * host * program)
			p.ref.add((1 + float64(i%5)/100) * host)
			p.setupRef.add((1 + float64(i%3)/100) * host)
		}
		return p
	}
	base, err := endToEnd(mk(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		host, program, want float64
	}{{1.3, 1, 1}, {1, 1.3, 1.3}, {0.8, 1.3, 1.3}} {
		got, err := endToEnd(mk(c.host, c.program))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range got {
			if m.name == "mem_live_mb" {
				continue
			}
			if r := m.value / base[i].value; math.Abs(r-c.want) > 1e-9 {
				t.Errorf("host %gx, program %gx: %s moved %gx, want %gx", c.host, c.program, m.name, r, c.want)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not one the program runs", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndTable) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndTable))
	}
	for i, m := range b.EndToEnd {
		want := endToEndTable[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, want)
		}
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerTable))
	}
	for i, m := range b.PerLayer {
		want := layerTable[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, m, want.name, want.unit, want.better)
		}
	}
}
