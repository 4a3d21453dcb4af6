package main

// The record-replay workload: the paper's core loop. Record every
// registered scenario live with the recorder attached (user mode),
// round-trip each trace through a WARR-ARCHIVE, then replay the golden
// corpus in a seeded order, each trace in a fresh developer-mode world.
//
// Layers timed from here: registry (NewEnv), browser (Tab.Navigate on
// the record side, split GMail / other because GMail never repeats a
// page), core (Recorder.Stats logging time), trace (archive write and
// ReadAuto), replayer (NewSession, and hooks splitting each command into
// resolve = BeforeStep→OnResolve and act = OnResolve→AfterStep) and
// netsim (an observer counting requests per replay).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	_ "github.com/dslab-epfl/warr/apps/calendar" // registers the create-event scenario the corpus holds
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/core"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/trace"
	"github.com/dslab-epfl/warr/internal/xpath"
)

const (
	corpusDir  = "testdata/corpus"
	gmailInbox = "https://gmail.test/mail"
	// navTrace is the trace navigation campaigns run over, in the
	// campaign and serve workloads.
	navTrace = "edit-site"
)

// golden is the part of a corpus golden a replay must reproduce.
type golden struct {
	Played       int    `json:"played"`
	Failed       int    `json:"failed"`
	RelaxedSteps int    `json:"relaxedSteps"`
	CoordSteps   int    `json:"coordinateSteps"`
	Complete     bool   `json:"complete"`
	FinalURL     string `json:"finalURL"`
	FinalTitle   string `json:"finalTitle"`
}

type corpusEntry struct {
	name   string
	data   []byte // archive bytes
	trace  command.Trace
	golden golden
	// requests is how many network requests a replay makes, counted
	// during setup; the traced run must see the same number.
	requests int
}

// loadCorpus reads every archive and its golden.
func loadCorpus() ([]corpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*"+trace.ArchiveExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no archives in %s", corpusDir)
	}
	out := make([]corpusEntry, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		_, tr, err := trace.ReadAuto(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), trace.ArchiveExt)
		gdata, err := os.ReadFile(filepath.Join(corpusDir, name+trace.GoldenExt))
		if err != nil {
			return nil, err
		}
		var g golden
		if err := json.Unmarshal(gdata, &g); err != nil {
			return nil, fmt.Errorf("%s golden: %w", name, err)
		}
		out = append(out, corpusEntry{name: name, data: data, trace: tr, golden: g})
	}
	return out, nil
}

// find returns the corpus entry with the given name.
func find(corpus []corpusEntry, name string) (*corpusEntry, error) {
	for i := range corpus {
		if corpus[i].name == name {
			return &corpus[i], nil
		}
	}
	return nil, fmt.Errorf("corpus has no %s trace", name)
}

type recordReplay struct {
	rng       *rand.Rand
	corpus    []corpusEntry
	scenarios []registry.Scenario
}

func newRecordReplay(seed uint64) workload {
	return &recordReplay{rng: rand.New(rand.NewPCG(seed, 0x7265706c6179))}
}

// requestCounter is the netsim observer behind netsim.requests.
type requestCounter struct{ n atomic.Int64 }

func (c *requestCounter) Observe(netsim.TrafficRecord) { c.n.Add(1) }

func (w *recordReplay) setup(tr *Tracer) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	var scs []registry.Scenario
	for _, name := range registry.ScenarioNames() {
		sc, err := registry.LookupScenario(name)
		if err != nil {
			return err
		}
		if len(sc.Steps) == 0 {
			return fmt.Errorf("scenario %s has no typed steps to time", name)
		}
		scs = append(scs, sc)
	}
	if err := advanceGMailIDs(corpus); err != nil {
		return err
	}
	// Record every scenario once: one that cannot record fails setup,
	// not the timed run.
	var scratch pass
	for _, sc := range scs {
		if err := w.recordTimed(&scratch, sc, &samples{}); err != nil {
			return err
		}
	}
	// Replay once, counting network requests: the reference the traced
	// run checks its own counts against.
	for i := range corpus {
		e := &corpus[i]
		env, err := registry.NewEnv(browser.DeveloperMode)
		if err != nil {
			return err
		}
		var c requestCounter
		env.Network.AddObserver(&c)
		res, tab, err := replayer.New(env.Browser, replayer.Options{}).Replay(e.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if err := matchGolden(e, res, tab); err != nil {
			return err
		}
		e.requests = int(c.n.Load())
	}
	w.corpus, w.scenarios = corpus, scs
	return nil
}

func (w *recordReplay) teardown() {}

var recordedGMailID = regexp.MustCompile(`@id=":([0-9]+)"`)

// advanceGMailIDs loads the GMail inbox until its process-global id
// counter has passed every id the corpus recorded. Until then a replay
// can find a recorded id on a fresh page by coincidence and resolve
// directly instead of relaxing; the goldens are defined past that
// point (the corpus runner gets there by replaying .nondet first).
func advanceGMailIDs(corpus []corpusEntry) error {
	highest := 0
	for _, e := range corpus {
		for _, m := range recordedGMailID.FindAllStringSubmatch(e.trace.Text(), -1) {
			if n, err := strconv.Atoi(m[1]); err == nil && n > highest {
				highest = n
			}
		}
	}
	compose := xpath.MustParse(`//div[@name="compose"]`)
	for {
		env, err := registry.NewEnv(browser.DeveloperMode)
		if err != nil {
			return err
		}
		tab := env.Browser.NewTab()
		if err := tab.Navigate(gmailInbox); err != nil {
			return err
		}
		found := xpath.Evaluate(compose, tab.MainFrame().Doc().Root())
		if len(found) != 1 {
			return fmt.Errorf("GMail inbox has %d compose buttons", len(found))
		}
		n, err := strconv.Atoi(strings.TrimPrefix(found[0].ID(), ":"))
		if err != nil {
			return fmt.Errorf("GMail compose id %q: %w", found[0].ID(), err)
		}
		if n > highest {
			return nil
		}
	}
}

func (w *recordReplay) run(p *pass) error {
	start := time.Now()
	recordActions := &samples{}
	replayLat := &samples{}
	allocs := &samples{}
	for time.Now().Before(p.deadline) {
		for _, sc := range w.scenarios {
			if err := w.recordTimed(p, sc, recordActions); err != nil {
				p.tally.fail("record %s: %v", sc.Name, err)
			} else {
				p.tally.ok()
			}
		}
		// The operation is one regression run of the corpus: every trace
		// once, in a seeded order. A single replay's latency depends on
		// which trace it is, so its percentiles jump between traces; a
		// round's does not.
		round := time.Now()
		for _, i := range w.rng.Perm(len(w.corpus)) {
			before := allocObjects()
			if err := w.replay(p, &w.corpus[i], replayLat); err != nil {
				p.tally.fail("replay %s: %v", w.corpus[i].name, err)
			} else {
				p.tally.ok()
			}
			allocs.add(float64(allocObjects() - before))
		}
		p.ops.add(ms(time.Since(round)))
		probe(&p.ref)
	}
	n := replayLat.n()
	p.figure("replayer.replay_p50_ms", "ms", replayLat.median(), n)
	if v, err := replayLat.pct("replayer.replay_p99_ms", 0.99); err == nil {
		p.figure("replayer.replay_p99_ms", "ms", v, n)
	}
	p.figure("replayer.replays_per_s", "1/s", float64(n)/time.Since(start).Seconds(), n)
	if v, err := recordActions.pct("record.action_p99_us", 0.99); err == nil {
		p.figure("record.action_p99_us", "us", v, recordActions.n())
	}
	p.figure("replayer.allocs", "count", allocs.median(), allocs.n())
	if p.tr != nil {
		w.layers(p)
	}
	return nil
}

// recordTimed records sc live, timing every user action (Step.Do) with
// the recorder attached, then round-trips the trace through an archive.
func (w *recordReplay) recordTimed(p *pass, sc registry.Scenario, actions *samples) error {
	tr := p.tr
	op := tr.NewOp()
	root := tr.Start("record", op, 0)
	defer tr.End(root)

	s := tr.Start("registry.env_build", op, root)
	env, err := registry.NewEnv(browser.UserMode)
	tr.End(s)
	if err != nil {
		return err
	}
	tab := env.Browser.NewTab()
	s = tr.Start(navigateSpan(sc.StartURL), op, root)
	err = tab.Navigate(sc.StartURL)
	tr.End(s)
	if err != nil {
		return err
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	defer rec.Detach()
	for i, st := range sc.Steps {
		s = tr.Start("record.action", op, root)
		start := time.Now()
		err := st.Do(env, tab)
		actions.add(us(time.Since(start)))
		tr.End(s)
		if err != nil {
			return fmt.Errorf("step %d (%s): %w", i+1, st, err)
		}
	}
	if err := sc.Verify(env, tab); err != nil {
		return fmt.Errorf("live session failed its oracle: %w", err)
	}
	rec.Detach()
	recorded := rec.Trace()
	if st := rec.Stats(); tr != nil && st.Actions > 0 {
		tr.Observe("core.log_us", us(st.LoggingTime)/float64(st.Actions))
	}

	var buf bytes.Buffer
	s = tr.Start("trace.encode", op, root)
	err = trace.Write(&buf, trace.Header{Scenario: sc.Name, App: sc.App, Recorder: "perfbench"}, recorded)
	tr.End(s)
	if err != nil {
		return err
	}
	s = tr.Start("trace.decode", op, root)
	_, decoded, err := trace.ReadAuto(bytes.NewReader(buf.Bytes()))
	tr.End(s)
	if err != nil {
		return err
	}
	if decoded.Text() != recorded.Text() {
		return fmt.Errorf("archive round trip changed the trace")
	}
	if len(recorded.Commands) == 0 {
		return fmt.Errorf("recorded no commands")
	}
	return nil
}

func navigateSpan(url string) string {
	if strings.Contains(url, "gmail") {
		return "browser.navigate_gmail"
	}
	return "browser.navigate_other"
}

// replay replays one corpus trace in a fresh developer-mode world and
// checks it against the golden. Its latency includes the world build.
func (w *recordReplay) replay(p *pass, e *corpusEntry, lat *samples) error {
	tr := p.tr
	op := tr.NewOp()
	start := time.Now()
	root := tr.Start("replay", op, 0)

	s := tr.Start("registry.env_build", op, root)
	env, err := registry.NewEnv(browser.DeveloperMode)
	tr.End(s)
	if err != nil {
		tr.End(root)
		return err
	}
	var opts replayer.Options
	var counter *requestCounter
	if tr != nil {
		// Hooks are attached only here: in campaigns they would turn off
		// prefix sharing and change the work measured.
		counter = &requestCounter{}
		env.Network.AddObserver(counter)
		var cur int
		opts.Hooks = []replayer.Hooks{{
			BeforeStep: func(int, command.Command, *browser.Tab) {
				cur = tr.Start("replayer.resolve", op, root)
			},
			OnResolve: func(replayer.Step, *browser.Tab) {
				tr.End(cur)
				cur = tr.Start("replayer.act", op, root)
			},
			AfterStep: func(replayer.Step, *browser.Tab) {
				tr.End(cur)
				cur = 0
			},
		}}
	}
	s = tr.Start("replayer.open", op, root)
	sess, err := replayer.New(env.Browser, opts).NewSession(context.Background(), e.trace)
	tr.End(s)
	if err != nil {
		tr.End(root)
		return err
	}
	res := sess.Run()
	tr.End(root)
	lat.add(ms(time.Since(start)))

	if err := matchGolden(e, res, sess.Tab()); err != nil {
		return err
	}
	relaxed, coords := stepCounts(res)
	if err := p.work.check("replay "+e.name, fmt.Sprintf("played=%d failed=%d relaxed=%d coords=%d", res.Played, res.Failed, relaxed, coords)); err != nil {
		return err
	}
	if tr != nil {
		n := int(counter.n.Load())
		if n != e.requests {
			return fmt.Errorf("traced replay made %d network requests, untraced %d", n, e.requests)
		}
		tr.Observe("netsim.requests", float64(n))
		tr.Observe("replayer.relaxed_steps", float64(relaxed))
		tr.Observe("replayer.coord_steps", float64(coords))
		tr.Observe("replayer.failed_steps", float64(res.Failed))
	}
	return nil
}

func stepCounts(res *replayer.Result) (relaxed, coords int) {
	for _, s := range res.Steps {
		switch s.Status {
		case replayer.StepRelaxed:
			relaxed++
		case replayer.StepByCoordinates:
			coords++
		}
	}
	return relaxed, coords
}

func matchGolden(e *corpusEntry, res *replayer.Result, tab *browser.Tab) error {
	relaxed, coords := stepCounts(res)
	got := golden{
		Played: res.Played, Failed: res.Failed,
		RelaxedSteps: relaxed, CoordSteps: coords,
		Complete: res.Complete(),
	}
	if tab != nil {
		got.FinalURL, got.FinalTitle = tab.URL(), tab.Title()
	}
	if got != e.golden {
		return fmt.Errorf("%s: replay %+v does not match golden %+v", e.name, got, e.golden)
	}
	return nil
}

// layers turns the traced run's spans into per-layer metrics.
func (w *recordReplay) layers(p *pass) {
	tr := p.tr
	p.layer("registry.env_build_us", tr.Total("registry.env_build").median()/1e3)
	p.layer("browser.navigate_gmail_us", tr.Total("browser.navigate_gmail").median()/1e3)
	p.layer("browser.navigate_other_us", tr.Total("browser.navigate_other").median()/1e3)
	p.layer("replayer.open_us", tr.Total("replayer.open").median()/1e3)
	p.layer("replayer.resolve_us", tr.Total("replayer.resolve").median()/1e3)
	p.layer("replayer.act_us", tr.Total("replayer.act").median()/1e3)
	p.layer("replayer.relaxed_steps", tr.Observed("replayer.relaxed_steps").mean())
	p.layer("replayer.coord_steps", tr.Observed("replayer.coord_steps").mean())
	p.layer("replayer.failed_steps", tr.Observed("replayer.failed_steps").mean())
	p.layer("core.log_us", tr.Observed("core.log_us").median())
	p.layer("trace.encode_us", tr.Total("trace.encode").median()/1e3)
	p.layer("trace.decode_us", tr.Total("trace.decode").median()/1e3)
	p.layer("netsim.requests", tr.Observed("netsim.requests").mean())
}
