// Command perfbench is the repository's benchmark: it drives the
// WaRR/WebErr stack through three workloads, checks every output
// against a reference, and prints end-to-end metrics from an untraced
// run or, with --trace 1, per-layer metrics from a traced run together
// with the tracing overhead.
//
//	bash perfbench/run.sh --workload record-replay --seed 1 --seconds 30 --trace 0
//
// Workloads (the seed is the only input; everything the program
// receives is generated from it):
//
//   - record-replay: closed loop, one client. Each round records every
//     registered scenario live in a user-mode browser with the recorder
//     attached, round-trips each trace through a WARR-ARCHIVE, then
//     replays the corpus traces (testdata/corpus/*.warr) in a seeded
//     order, each in a fresh developer-mode world. The operation is one
//     such replay of the whole corpus. Page construction is most of a
//     replay; GMail serves a unique page on every load, so its replays
//     always relax and miss the page and script caches, while the
//     Sites, Docs and search pages repeat and hit them. No forks,
//     images, jobs or wire.
//   - campaign: closed loop, one campaign at a time, executor
//     parallelism = nproc. The operation is one rotation: an edit-site
//     navigation campaign (infer, mutate, execute, report), a seeded
//     fuzz campaign and a seeded multi-user load campaign. World forks
//     and allocation dominate here, and the shared-prefix trie starts
//     most replays from a fork instead of a page build — the workload
//     where cheaper forks show, with record-replay (no forks) as the
//     no-change control.
//   - serve: open loop. A seeded arrival schedule submits jobs to a
//     serve.Server on a loopback listener, backed by an fsync'd
//     write-ahead journal and a distrib.Pool with two workers. The mix
//     is replay jobs of corpus traces plus one navigation campaign in
//     50. The operation is one job at the base rate (50 jobs/s), timed
//     from its due time to its terminal state, so a stall also charges
//     the jobs queued behind it; four ladder rates below, at and above
//     the measured capacity find the highest rate that meets the
//     latency limit (see ladder in serve.go). The only workload that
//     exercises jobs, serve, distrib and image.
//
// End-to-end metrics (every workload, --trace 0): setup_s, op_p50_ms and
// mem_live_mb (see endToEnd for the estimators). The two timings are
// corrected for the host's speed by a reference loop timed alongside
// the work (hostref.go); the wall-clock medians are per-layer. The
// workload-specific figures (replayer.replay_p50_ms,
// record.action_p99_us, campaign.nav_p50_ms, serve.submit_p90_ms, ...)
// are printed by name above the result line and, from the untraced pass
// of a --trace 1 run, as per-layer metrics. The layer table in
// layers.go names, for every per-layer metric, the end-to-end metric and
// workload it should move.
//
// Known interactions the numbers must be read with:
//
//   - Making the job journal durable before a job becomes visible puts
//     one journal fsync between run and terminal state, which should
//     raise the serve op_p50_ms by about the fsync share of
//     serve.submit_us (write+fsync p50 ~0.1 ms, p99 0.8-2.5 ms on ext4).
//   - distrib.Pool runs one campaign at a time, so a campaign job that
//     arrives while another is distributed runs in-process instead;
//     distrib.accepted_ratio tracks that split.
//   - On 2 cores an 8-session navigation campaign is no faster than a
//     sequential one (~2.5-3.2 ms each), so executor parallelism is
//     nproc, not a fixed 8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds its workload's world; setup_s
// is their median, the last build is the one measured.
const setupRuns = 25

// workload is one benchmark scenario.
type workload interface {
	// setup builds everything the timed operations need; tr is nil in
	// the untraced run.
	setup(tr *Tracer) error
	// run performs timed operations until p.deadline.
	run(p *pass) error
	// teardown releases what setup built and stops what it started.
	teardown()
}

var workloads = map[string]func(seed uint64) workload{
	"record-replay": newRecordReplay,
	"campaign":      newCampaign,
	"serve":         newServe,
}

// namedValue is one printed figure.
type namedValue struct {
	name  string
	unit  string
	value float64
	n     int // sample count behind the value, 0 when not a timing
}

// pass is one measured run of a workload.
type pass struct {
	tr       *Tracer
	deadline time.Time
	seconds  float64
	setupS   float64
	memLive  float64 // live heap after the pass, or where the workload reads it, MiB
	tally    tally
	ops      samples // operation latencies, ms
	// setupRef and ref are the reference-loop probes (hostref.go) taken
	// between set-ups and during the pass, ms.
	setupRef samples
	ref      samples
	work     workLog
	// figures holds the workload's own end-to-end figures, under their
	// per-layer names; layers holds per-layer metrics (traced pass).
	figures []namedValue
	layers  map[string]float64
}

func (p *pass) figure(name, unit string, v float64, n int) {
	p.figures = append(p.figures, namedValue{name, unit, v, n})
}

func (p *pass) layer(name string, v float64) {
	if p.layers == nil {
		p.layers = make(map[string]float64)
	}
	p.layers[name] = v
}

// workLog records, per operation kind, the work an operation did
// (replays, findings, environment builds, ...). Every operation of a
// kind must do the same work, and the traced run must do the same work
// as the untraced one.
type workLog struct {
	sigs map[string]string
}

// check records sig for kind, or compares it with the first one seen.
func (w *workLog) check(kind, sig string) error {
	if w.sigs == nil {
		w.sigs = make(map[string]string)
	}
	first, ok := w.sigs[kind]
	if !ok {
		w.sigs[kind] = sig
		return nil
	}
	if first != sig {
		return fmt.Errorf("%s: work changed between operations: first %q, now %q", kind, first, sig)
	}
	return nil
}

// sameWork compares the work of two passes kind by kind.
func sameWork(untraced, traced *workLog) error {
	common := 0
	for kind, sig := range untraced.sigs {
		other, ok := traced.sigs[kind]
		if !ok {
			continue
		}
		common++
		if other != sig {
			return fmt.Errorf("%s: traced run did different work: untraced %q, traced %q", kind, sig, other)
		}
	}
	if common == 0 {
		return fmt.Errorf("traced and untraced runs share no operation kind")
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "record-replay", "workload: record-replay, campaign or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "how long a run measures")
	traced := fs.Int("trace", 0, "1 = also run a traced pass and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if _, err := os.Stat(filepath.Join("testdata", "corpus")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	// A traced run measures two passes, untraced then traced, of half
	// the time each, so it takes as long as an untraced run.
	dur := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		dur /= 2
	}

	untraced, err := measure(mk(*seed), nil, dur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	e2e, err := endToEnd(untraced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printHuman(os.Stdout, *name+" (untraced)", untraced, e2e)
	res := result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = untraced.tally.counts()

	if *traced == 1 {
		tr := newTracer()
		tp, err := measure(mk(*seed), tr, dur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		if err := sameWork(&untraced.work, &tp.work); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		te2e, err := endToEnd(tp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		spans := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", *name, *seed))
		if err := tr.WriteFile(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		printHuman(os.Stdout, *name+" (traced)", tp, te2e)
		a, f := tp.tally.counts()
		res.Attempted += a
		res.Failed += f
		// Per-layer metrics come from the traced pass; the workload's own
		// end-to-end figures come from the untraced one.
		vals := map[string]float64{}
		for k, v := range tp.layers {
			vals[k] = v
		}
		for _, x := range untraced.figures {
			vals[x.name] = x.value
		}
		vals["bench.error_rate"] = untraced.tally.errorRate()
		for i, m := range e2e {
			vals["overhead."+m.name] = te2e[i].value - m.value
		}
		fmt.Printf("per-layer (%s, traced; spans in %s):\n", *name, spans)
		for _, l := range layerTable {
			v := vals[l.name]
			res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
			if _, ran := vals[l.name]; ran {
				fmt.Printf("  %-34s %14.4f %-8s moves %s on %s\n", l.name, v, l.unit, l.moves, l.on)
			}
		}
	} else {
		for _, m := range e2e {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed their correctness check\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure sets the workload up setupRuns times, then runs one timed
// pass over the last set-up world.
func measure(w workload, tr *Tracer, dur time.Duration) (*pass, error) {
	runtime.GC()
	p := &pass{tr: tr}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			w.teardown()
		}
		probe(&p.setupRef)
		start := time.Now()
		if err := w.setup(tr); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	sort.Float64s(setups)
	p.setupS = setups[len(setups)/2]
	start := time.Now()
	p.deadline = start.Add(dur)
	err := w.run(p)
	p.seconds = time.Since(start).Seconds()
	if p.memLive == 0 {
		p.memLive = liveHeapMiB()
	}
	if v, err := p.ops.pct("bench.op_p90_ms", 0.90); err == nil {
		p.figure("bench.op_p90_ms", "ms", v, p.ops.n())
	}
	p.figure("bench.wall_setup_s", "s", p.setupS, setupRuns)
	if v, err := p.ops.pct("bench.wall_op_p50_ms", 0.50); err == nil {
		p.figure("bench.wall_op_p50_ms", "ms", v, p.ops.n())
	}
	p.figure("bench.host_speed", "ratio", hostSpeed(&p.ref), p.ref.n())
	if tr == nil {
		// The untraced pass is the process's first, so the high-water
		// mark so far is this workload's: its set-ups and its pass.
		p.figure("bench.mem_peak_mb", "MiB", peakRSSMiB(), 0)
	}
	w.teardown()
	if err != nil {
		return nil, err
	}
	if a, f := p.tally.counts(); f > 0 {
		p.tally.mu.Lock()
		msgs := strings.Join(p.tally.errs, "\n  ")
		p.tally.mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed:\n  %s\n", f, a, msgs)
	}
	return p, nil
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// endToEnd derives the gated metrics from a pass, in endToEndTable
// order: op_p50_ms is the median of every operation of the pass and
// setup_s the median set-up, each at the reference host speed of the
// probes taken alongside (hostref.go); mem_live_mb is the heap live
// after the pass (serve reads it after its base phase). The wall-clock
// medians are the per-layer bench.wall_op_p50_ms and
// bench.wall_setup_s. The operations' p90 and the process's
// peak resident memory are the per-layer bench.op_p90_ms and
// bench.mem_peak_mb.
func endToEnd(p *pass) ([]namedValue, error) {
	p50, err := p.ops.pct("op_p50_ms", 0.50)
	if err != nil {
		return nil, err
	}
	vals := map[string]namedValue{
		"setup_s":     {"setup_s", "s", p.setupS * hostSpeed(&p.setupRef), setupRuns},
		"op_p50_ms":   {"op_p50_ms", "ms", p50 * hostSpeed(&p.ref), p.ops.n()},
		"mem_live_mb": {"mem_live_mb", "MiB", p.memLive, 0},
	}
	out := make([]namedValue, len(endToEndTable))
	for i, e := range endToEndTable {
		out[i] = vals[e.name]
	}
	return out, nil
}

func printHuman(w *os.File, title string, p *pass, e2e []namedValue) {
	a, f := p.tally.counts()
	fmt.Fprintf(w, "%s: %.2f s measured, %d operations attempted, %d failed\n", title, p.seconds, a, f)
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-24s %14.4f %-8s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " (n=%d)", m.n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-24s %14.4f %-8s (%d of %d)\n", "error_rate", p.tally.errorRate(), "ratio", f, a)
	for _, m := range p.figures {
		fmt.Fprintf(w, "  %-24s %14.4f %-8s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " (n=%d)", m.n)
		}
		fmt.Fprintln(w)
	}
}
