package main

// The campaign workload: WebErr and AUsER campaigns, one at a time,
// rotating an edit-site navigation campaign, a seeded fuzz campaign and
// a seeded multi-user load campaign, with executor parallelism = nproc.
//
// Two traps keep the traced run doing the untraced run's work. Replay
// hooks turn prefix sharing off, so campaigns are timed only through
// the Inspect/Coverage callbacks and the EnvFactory. Wrapping an App
// would hide its Snapshotter and turn forks into the flat fallback, so
// no app is wrapped; the factory wrapper only counts and times calls.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/errmodel"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// Campaign sizes, and the values the default seed (1) must reproduce:
// they are the repository benchmarks' pinned campaigns.
const (
	fuzzBudget = 32
	loadUsers  = 10000
	loadMix    = "mixed"

	pinnedNavReplays  = 22
	pinnedNavFindings = 15
	pinnedFuzzBits    = 57
	pinnedFuzzFinds   = 2
	pinnedLoadBits    = 18
	pinnedLoadFinds   = 2
)

// subSeeds is how many fuzz and load seeds a run cycles through: one
// seed's campaigns cost more or less than another's, and a run that
// averages several is not at the mercy of one draw.
const subSeeds = 4

type campaignWorkload struct {
	seed uint64
	par  int
	edit command.Trace
	// ref is the navigation findings of the flat executor with pruning
	// off, computed at setup.
	ref string
	// first holds each campaign's first rendered report in this run.
	first map[string]string
}

func newCampaign(seed uint64) workload {
	return &campaignWorkload{seed: seed, par: runtime.NumCPU()}
}

// fuzzSeed and loadSeed derive rotation k's campaign seeds. For the
// default seed 1, rotation 0 runs fuzz seed 1 and load seed 7: the
// pinned campaigns of the repository's own benchmarks.
func (w *campaignWorkload) fuzzSeed(k int) int64 { return int64(w.seed) + 100*int64(k) }
func (w *campaignWorkload) loadSeed(k int) int64 { return int64(w.seed) + 6 + 100*int64(k) }

// pinned reports whether rotation k must reproduce the pinned values.
func (w *campaignWorkload) pinned(k int) bool { return w.seed == 1 && k == 0 }

func (w *campaignWorkload) setup(tr *Tracer) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	edit, err := find(corpus, navTrace)
	if err != nil {
		return err
	}
	w.edit = edit.trace
	fresh := registry.BrowserFactory(browser.DeveloperMode)
	tree, err := weberr.InferTaskTree(fresh, w.edit)
	if err != nil {
		return err
	}
	// The reference runs the §V-A ablation (pruning off) on the flat
	// executor, which replays every mutant: that is what the pinned
	// counts describe. Pruning skips only mutants that would fail at a
	// prefix that already failed, so it cannot change the findings.
	rep := weberr.RunNavigationCampaign(fresh, weberr.FromTaskTree(tree), weberr.CampaignOptions{
		Replayer:             replayer.Options{Pacing: replayer.PaceNone},
		DisablePruning:       true,
		DisablePrefixSharing: true,
		Parallelism:          w.par,
	})
	if rep.Replayed != pinnedNavReplays || len(rep.Findings) != pinnedNavFindings {
		return fmt.Errorf("flat navigation reference: %d replays, %d findings; want %d, %d",
			rep.Replayed, len(rep.Findings), pinnedNavReplays, pinnedNavFindings)
	}
	w.ref = renderFindings(rep)
	w.first = make(map[string]string)
	return nil
}

func (w *campaignWorkload) teardown() {}

// navOptions are the timed navigation campaign's: a default campaign
// (pruning and prefix sharing on) without pacing waits.
func (w *campaignWorkload) navOptions(oracle weberr.Oracle) weberr.CampaignOptions {
	return weberr.CampaignOptions{
		Oracle:      oracle,
		Replayer:    replayer.Options{Pacing: replayer.PaceNone},
		Parallelism: w.par,
	}
}

// factory counts (and, traced, times) environment builds. Forks do not
// call it, which is what campaign.env_builds shows. Each build's span
// is a child of whatever *parent names when it is called.
func factory(tr *Tracer, op uint64, parent *int, builds *atomic.Int64) campaign.EnvFactory {
	fresh := registry.BrowserFactory(browser.DeveloperMode)
	return func() *browser.Browser {
		builds.Add(1)
		s := tr.Start("registry.env_build", op, *parent)
		b := fresh()
		tr.End(s)
		return b
	}
}

func (w *campaignWorkload) run(p *pass) error {
	kinds := []struct {
		name string
		fn   func(p *pass, k int) (int, error) // returns replays (users for load)
		lat  *samples
		allc *samples
	}{
		{"navigation", w.navigation, &samples{}, &samples{}},
		{"fuzz", w.fuzz, &samples{}, &samples{}},
		{"load", w.load, &samples{}, &samples{}},
	}
	var replays, users int
	// The operation is one rotation: a navigation, a fuzz and a load
	// campaign, back to back. The three differ fourfold in cost, so
	// percentiles over single campaigns would sit on the seams between
	// them.
	for k := 0; time.Now().Before(p.deadline); k = (k + 1) % subSeeds {
		rotation := time.Now()
		for _, c := range kinds {
			before := allocObjects()
			t0 := time.Now()
			units, err := c.fn(p, k)
			c.lat.add(ms(time.Since(t0)))
			c.allc.add(float64(allocObjects() - before))
			if err != nil {
				p.tally.fail("%s campaign: %v", c.name, err)
				continue
			}
			p.tally.ok()
			if c.name == "load" {
				users += units
			} else {
				replays += units
			}
		}
		p.ops.add(ms(time.Since(rotation)))
		probe(&p.ref)
	}
	nav, fz, ld := kinds[0], kinds[1], kinds[2]
	p.figure("campaign.nav_p50_ms", "ms", nav.lat.median(), nav.lat.n())
	p.figure("campaign.fuzz_p50_ms", "ms", fz.lat.median(), fz.lat.n())
	p.figure("campaign.load_p50_ms", "ms", ld.lat.median(), ld.lat.n())
	// Mutant replays per host second spent in navigation and fuzz
	// campaigns; users per host second spent in load campaigns.
	if s := (nav.lat.sum() + fz.lat.sum()) / 1e3; s > 0 {
		p.figure("campaign.replays_per_s", "1/s", float64(replays)/s, replays)
	}
	if s := ld.lat.sum() / 1e3; s > 0 {
		p.figure("multiuser.users_per_s", "users/s", float64(users)/s, users)
	}
	p.figure("campaign.nav_allocs", "count", nav.allc.median(), nav.allc.n())
	p.figure("campaign.fuzz_allocs", "count", fz.allc.median(), fz.allc.n())
	p.figure("campaign.load_allocs", "count", ld.allc.median(), ld.allc.n())
	if tr := p.tr; tr != nil {
		p.layer("weberr.infer_ms", tr.Total("weberr.infer").median()/1e6)
		p.layer("weberr.mutants", tr.Observed("weberr.mutants").median())
		p.layer("campaign.execute_ms", tr.Total("campaign.execute").median()/1e6)
		p.layer("campaign.execute_self_ms", tr.Self("campaign.execute").median()/1e6)
		p.layer("campaign.env_builds", tr.Observed("campaign.env_builds").median())
		p.layer("campaign.replays", tr.Observed("campaign.replays").median())
		p.layer("campaign.pruned", tr.Observed("campaign.pruned").median())
		p.layer("campaign.useful_ratio", tr.Observed("campaign.useful_ratio").median())
		p.layer("campaign.oracle_us", tr.Total("campaign.oracle").median()/1e3)
		p.layer("errmodel.coverage_us", tr.Total("errmodel.coverage").median()/1e3)
		p.layer("errmodel.novel_ratio", tr.Observed("errmodel.novel_ratio").median())
		p.layer("errmodel.dedup_ratio", tr.Observed("errmodel.dedup_ratio").median())
		p.layer("multiuser.worlds", tr.Observed("multiuser.worlds").median())
		p.layer("multiuser.shared_ratio", tr.Observed("multiuser.shared_ratio").median())
	}
	return nil
}

// navigation infers the edit-site task tree, generates its mutants,
// executes them through the shared-prefix scheduler and reports.
func (w *campaignWorkload) navigation(p *pass, _ int) (int, error) {
	tr := p.tr
	op := tr.NewOp()
	root := tr.Start("campaign.navigation", op, 0)
	defer tr.End(root)
	// parent is the span that environment builds and oracle calls
	// belong to: inference, then execution. It changes only while no
	// executor goroutine runs.
	parent := root
	var builds atomic.Int64
	fresh := factory(tr, op, &parent, &builds)

	s := tr.Start("weberr.infer", op, root)
	parent = s
	tree, err := weberr.InferTaskTree(fresh, w.edit)
	tr.End(s)
	if err != nil {
		return 0, err
	}
	var oracle weberr.Oracle
	if tr != nil {
		oracle = func(tab *browser.Tab, res *replayer.Result) error {
			s := tr.Start("campaign.oracle", op, parent)
			defer tr.End(s)
			return weberr.ConsoleOracle(tab, res)
		}
	}
	opts := w.navOptions(oracle)
	s = tr.Start("weberr.mutants", op, root)
	plan := weberr.NavigationPlan(weberr.FromTaskTree(tree), opts)
	tr.End(s)
	inferBuilds := builds.Load()
	exec := weberr.NavigationExecutor(fresh, opts)
	s = tr.Start("campaign.execute", op, root)
	parent = s
	outs := exec.Execute(context.Background(), plan)
	tr.End(s)
	rep := weberr.ReportOutcomes(outs)

	if got := renderFindings(rep); got != w.ref {
		return 0, fmt.Errorf("findings differ from the flat-executor reference:\n%s\nwant:\n%s", got, w.ref)
	}
	if rep.Replayed+rep.Pruned != rep.Generated {
		return 0, fmt.Errorf("%d mutants generated, but %d replayed and %d pruned", rep.Generated, rep.Replayed, rep.Pruned)
	}
	// The Replayed/Pruned split may differ with scheduling; the work may
	// not.
	execBuilds := builds.Load() - inferBuilds
	if err := p.work.check("navigation", fmt.Sprintf("generated=%d findings=%d env_builds=%d",
		rep.Generated, len(rep.Findings), execBuilds)); err != nil {
		return 0, err
	}
	if tr != nil {
		tr.Observe("weberr.mutants", float64(len(plan)))
		tr.Observe("campaign.env_builds", float64(execBuilds))
		tr.Observe("campaign.replays", float64(rep.Replayed))
		tr.Observe("campaign.pruned", float64(rep.Pruned))
		if rep.Generated > 0 {
			tr.Observe("campaign.useful_ratio", float64(rep.Replayed)/float64(rep.Generated))
		}
	}
	return rep.Replayed, nil
}

// fuzz runs one budgeted coverage-guided fuzz campaign over edit-site.
func (w *campaignWorkload) fuzz(p *pass, k int) (int, error) {
	tr := p.tr
	op := tr.NewOp()
	root := tr.Start("campaign.fuzz", op, 0)
	defer tr.End(root)
	var builds atomic.Int64
	coverage := errmodel.CampaignCoverage
	if tr != nil {
		coverage = func(res *replayer.Result, tab *browser.Tab) []byte {
			s := tr.Start("errmodel.coverage", op, root)
			defer tr.End(s)
			return errmodel.CampaignCoverage(res, tab)
		}
	}
	fx := campaign.NewFuzzExecutor(factory(tr, op, &root, &builds), campaign.FuzzOptions{
		Budget:      fuzzBudget,
		Parallelism: w.par,
		Inspect: func(job campaign.Job, res *replayer.Result, tab *browser.Tab) error {
			if res.Failed > 0 || res.Cancelled {
				return nil
			}
			s := tr.Start("campaign.oracle", op, root)
			defer tr.End(s)
			return weberr.ConsoleOracle(tab, res)
		},
		Coverage: coverage,
	})
	st := fx.Run(context.Background(), errmodel.NewMutator(w.edit, w.fuzzSeed(k), nil))
	if w.pinned(k) && (st.CoverageBits != pinnedFuzzBits || len(st.Findings) != pinnedFuzzFinds) {
		return 0, fmt.Errorf("pinned campaign: %d coverage bits, %d findings; pinned %d, %d",
			st.CoverageBits, len(st.Findings), pinnedFuzzBits, pinnedFuzzFinds)
	}
	if err := w.sameAsFirst(fmt.Sprintf("fuzz seed %d", w.fuzzSeed(k)), renderFuzz(st)); err != nil {
		return 0, err
	}
	if err := p.work.check(fmt.Sprintf("fuzz seed %d", w.fuzzSeed(k)), fmt.Sprintf("replayed=%d findings=%d bits=%d env_builds=%d",
		st.Replayed, len(st.Findings), st.CoverageBits, builds.Load())); err != nil {
		return 0, err
	}
	if tr != nil && st.Replayed > 0 && st.Generated > 0 {
		tr.Observe("errmodel.novel_ratio", float64(st.Novel)/float64(st.Replayed))
		tr.Observe("errmodel.dedup_ratio", float64(st.Deduped)/float64(st.Generated))
	}
	return st.Replayed, nil
}

// load runs one multi-user load campaign.
func (w *campaignWorkload) load(p *pass, k int) (int, error) {
	tr := p.tr
	op := tr.NewOp()
	root := tr.Start("campaign.load", op, 0)
	defer tr.End(root)
	rep, err := multiuser.Run(context.Background(), multiuser.Options{
		Workload: loadMix, Users: loadUsers, Seed: w.loadSeed(k), Parallelism: w.par,
	})
	if err != nil {
		return 0, err
	}
	if w.pinned(k) && (rep.CoverageBits != pinnedLoadBits || len(rep.Findings) != pinnedLoadFinds) {
		return 0, fmt.Errorf("pinned campaign: %d coverage bits, %d findings; pinned %d, %d",
			rep.CoverageBits, len(rep.Findings), pinnedLoadBits, pinnedLoadFinds)
	}
	if err := w.sameAsFirst(fmt.Sprintf("load seed %d", w.loadSeed(k)), rep.Render()); err != nil {
		return 0, err
	}
	if err := p.work.check(fmt.Sprintf("load seed %d", w.loadSeed(k)), fmt.Sprintf("worlds=%d executed=%d shared=%d findings=%d",
		rep.Worlds, rep.Executed, rep.Shared, len(rep.Findings))); err != nil {
		return 0, err
	}
	if tr != nil && rep.Worlds > 0 {
		tr.Observe("multiuser.worlds", float64(rep.Worlds))
		tr.Observe("multiuser.shared_ratio", float64(rep.Shared)/float64(rep.Worlds))
	}
	return rep.Users, nil
}

func (w *campaignWorkload) sameAsFirst(kind, render string) error {
	first, ok := w.first[kind]
	if !ok {
		w.first[kind] = render
		return nil
	}
	if first != render {
		return fmt.Errorf("%s report differs from the first iteration's:\n%s\nfirst:\n%s", kind, render, first)
	}
	return nil
}

func renderFindings(rep *weberr.Report) string {
	var b bytes.Buffer
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "%s | %v\n", f.Injection, f.Observed)
	}
	return b.String()
}

func renderFuzz(st *campaign.FuzzStats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "generated=%d deduped=%d pruned=%d replayed=%d replayFailures=%d skipped=%d novel=%d corpus=%d bits=%d\n",
		st.Generated, st.Deduped, st.Pruned, st.Replayed, st.ReplayFailures,
		st.Skipped, st.Novel, st.CorpusSize, st.CoverageBits)
	for _, f := range st.Findings {
		fmt.Fprintf(&b, "finding %s | %s\n%s", f.Program, f.Observed, f.Trace.Text())
	}
	return b.String()
}
