package replayer

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/vclock"
	"github.com/dslab-epfl/warr/internal/webdriver"
)

func TestSessionStepwiseMatchesOneShotReplay(t *testing.T) {
	sc := apps.EditSiteScenario()
	tr := record(t, sc)

	// One-shot replay as the reference.
	ref, _, _ := replayInFreshEnv(t, tr, browser.DeveloperMode, Options{})

	env := apps.NewEnv(browser.DeveloperMode)
	s, err := New(env.Browser, Options{}).NewSession(context.Background(), tr)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var steps []Step
	for {
		if s.Done() {
			t.Fatal("Done before the trace was exhausted")
		}
		st, ok := s.Next()
		if !ok {
			break
		}
		steps = append(steps, st)
		if got := len(s.Result().Steps); got != len(steps) {
			t.Fatalf("partial result has %d steps after %d Next calls", got, len(steps))
		}
	}
	if !s.Done() {
		t.Error("session not Done after Next returned false")
	}
	if len(steps) != len(ref.Steps) {
		t.Fatalf("session replayed %d steps, one-shot replayed %d", len(steps), len(ref.Steps))
	}
	for i := range steps {
		if steps[i].Status != ref.Steps[i].Status {
			t.Errorf("step %d: status %v vs one-shot %v", i, steps[i].Status, ref.Steps[i].Status)
		}
	}
	if err := sc.Verify(env, s.Tab()); err != nil {
		t.Errorf("stepwise replay did not reproduce the session: %v", err)
	}
	if s.Err() != nil {
		t.Errorf("Err = %v, want nil", s.Err())
	}
}

func TestSessionStepsIteratorResumesAfterBreak(t *testing.T) {
	tr := record(t, apps.EditSiteScenario())
	env := apps.NewEnv(browser.DeveloperMode)
	s, err := New(env.Browser, Options{}).NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range s.Steps() {
		seen++
		if seen == 3 {
			break
		}
	}
	if s.Done() {
		t.Fatal("breaking out of Steps must pause, not end, the session")
	}
	for range s.Steps() {
		seen++
	}
	if seen != len(tr.Commands) {
		t.Errorf("replayed %d commands across two loops, want %d", seen, len(tr.Commands))
	}
	if !s.Result().Complete() {
		t.Errorf("result incomplete: %+v", s.Result())
	}
}

func TestSessionCancelledMidReplayReturnsPartialResult(t *testing.T) {
	tr := record(t, apps.EditSiteScenario())
	if len(tr.Commands) < 4 {
		t.Fatalf("trace too short: %d commands", len(tr.Commands))
	}
	env := apps.NewEnv(browser.DeveloperMode)
	ctx, cancel := context.WithCancelCause(context.Background())
	s, err := New(env.Browser, Options{}).NewSession(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("user pressed stop")
	const before = 3
	for i := 0; i < before; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("session ended early at step %d", i)
		}
	}
	cancel(boom)
	if _, ok := s.Next(); ok {
		t.Fatal("Next replayed a command after cancellation")
	}

	res := s.Result()
	if !res.Cancelled {
		t.Error("result not marked Cancelled")
	}
	if !errors.Is(res.CancelCause, boom) {
		t.Errorf("CancelCause = %v, want the cancel cause", res.CancelCause)
	}
	if len(res.Steps) != before {
		t.Errorf("partial result has %d steps, want %d", len(res.Steps), before)
	}
	if res.Complete() {
		t.Error("cancelled result must not be Complete")
	}
	if !errors.Is(s.Err(), boom) {
		t.Errorf("session Err = %v, want the cancel cause", s.Err())
	}
	// The session stays ended.
	if _, ok := s.Next(); ok || !s.Done() {
		t.Error("cancelled session must stay Done")
	}
}

func TestSessionCancelledAfterLastCommandIsComplete(t *testing.T) {
	// A context firing after the final command must not retroactively
	// mark a fully-replayed session as cancelled: exhaustion is checked
	// before cancellation, so Complete() holds and — downstream — a
	// context-bounded campaign keeps the job's oracle verdict instead
	// of routing it to Skipped.
	tr := record(t, apps.EditSiteScenario())
	env := apps.NewEnv(browser.DeveloperMode)
	ctx, cancel := context.WithCancelCause(context.Background())
	s, err := New(env.Browser, Options{}).NewSession(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Commands); i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("session ended early at step %d", i)
		}
	}
	cancel(errors.New("deadline after the last command"))
	if _, ok := s.Next(); ok {
		t.Fatal("Next replayed past the trace end")
	}
	res := s.Result()
	if res.Cancelled {
		t.Error("fully-replayed session marked Cancelled")
	}
	if res.Played != len(tr.Commands) || !res.Complete() {
		t.Errorf("played %d/%d, Complete=%v; want a complete result",
			res.Played, len(tr.Commands), res.Complete())
	}
}

func TestReplayContextAlreadyCancelled(t *testing.T) {
	tr := record(t, apps.EditSiteScenario())
	env := apps.NewEnv(browser.DeveloperMode)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, tab, err := New(env.Browser, Options{}).ReplayContext(ctx, tr)
	if err != nil {
		t.Fatalf("ReplayContext: %v", err)
	}
	if tab == nil {
		t.Fatal("no tab returned")
	}
	if len(res.Steps) != 0 || !res.Cancelled {
		t.Errorf("cancelled-before-start replay: %+v", res)
	}
	if !errors.Is(res.CancelCause, context.Canceled) {
		t.Errorf("CancelCause = %v", res.CancelCause)
	}
}

func TestSessionDeadlineStopsBetweenCommands(t *testing.T) {
	// A deadline in the past: the first Next call must refuse to replay.
	tr := record(t, apps.EditSiteScenario())
	env := apps.NewEnv(browser.DeveloperMode)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	<-ctx.Done()
	s, err := New(env.Browser, Options{}).NewSession(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next replayed a command past the deadline")
	}
	if !errors.Is(s.Err(), context.DeadlineExceeded) {
		t.Errorf("Err = %v, want DeadlineExceeded", s.Err())
	}
}

// sessionHaltEnv builds a two-page world where a click navigates, so an
// unfixed ChromeDriver (defect 4) deterministically loses its active
// client on the unload.
func sessionHaltEnv(t *testing.T) *browser.Browser {
	t.Helper()
	clock := vclock.New()
	network := netsim.New(clock)
	pages := map[string]string{
		"/":  `<html><body><a id="go" href="/b">next</a></body></html>`,
		"/b": `<html><body><div id="done">arrived</div></body></html>`,
	}
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if body, ok := pages[req.Path()]; ok {
			return netsim.OK(body)
		}
		return netsim.NotFound()
	}))
	return browser.New(clock, network, browser.DeveloperMode)
}

func TestSessionHaltsOnNoActiveClient(t *testing.T) {
	tr := command.Trace{
		StartURL: "http://app.test/",
		Commands: []command.Command{
			{Action: command.Click, XPath: `//a[@id="go"]`},
			{Action: command.Click, XPath: `//div[@id="done"]`},
			{Action: command.Click, XPath: `//div[@id="done"]`},
		},
	}
	b := sessionHaltEnv(t)
	s, err := New(b, Options{
		// No coordinate fallback: the commands carry zero coordinates.
		DisableCoordinateFallback: true,
		Driver:                    webdriver.Options{DisableUnloadFix: true},
	}).NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()

	if !res.Halted {
		t.Fatalf("replay did not halt: %+v", res)
	}
	if res.Complete() {
		t.Error("halted replay must not be Complete")
	}
	// The driver attaches before the start page loads, so with the
	// defect the start-page unload already costs it the active client:
	// the first command halts the session and the rest are never
	// attempted.
	if len(res.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 (halt stops the session)", len(res.Steps))
	}
	last := res.Steps[0]
	if last.Status != StepFailed || !errors.Is(last.Err, webdriver.ErrNoActiveClient) {
		t.Errorf("halting step: status %v err %v, want failed with ErrNoActiveClient", last.Status, last.Err)
	}
	if !s.Done() {
		t.Error("halted session must be Done")
	}
	if _, ok := s.Next(); ok {
		t.Error("Next must keep returning false after the halt")
	}
	if s.Err() != nil {
		t.Errorf("halt is not a context error; Err = %v", s.Err())
	}
}

func TestSessionFixedDriverDoesNotHalt(t *testing.T) {
	// The same trace with WaRR's fix replays end to end — the control
	// for TestSessionHaltsOnNoActiveClient.
	tr := command.Trace{
		StartURL: "http://app.test/",
		Commands: []command.Command{
			{Action: command.Click, XPath: `//a[@id="go"]`},
			{Action: command.Click, XPath: `//div[@id="done"]`},
		},
	}
	b := sessionHaltEnv(t)
	s, err := New(b, Options{DisableCoordinateFallback: true}).NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); !res.Complete() {
		t.Errorf("fixed driver should replay completely: %+v", res)
	}
}

func TestHookChainOrderAndPayloads(t *testing.T) {
	tr := record(t, apps.EditSiteScenario())
	env := apps.NewEnv(browser.DeveloperMode)

	var events []string
	hook := func(name string) Hooks {
		return Hooks{
			BeforeStep: func(idx int, cmd command.Command, tab *browser.Tab) {
				events = append(events, fmt.Sprintf("%s:before:%d", name, idx))
			},
			OnResolve: func(step Step, tab *browser.Tab) {
				events = append(events, fmt.Sprintf("%s:resolve:%d", name, step.Index))
			},
			AfterStep: func(step Step, tab *browser.Tab) {
				events = append(events, fmt.Sprintf("%s:after:%d", name, step.Index))
			},
		}
	}
	s, err := New(env.Browser, Options{Hooks: []Hooks{hook("opts")}}).
		NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	s.AddHooks(hook("session"))
	s.Run()

	// Per command: opts.before, session.before, opts.resolve,
	// session.resolve, opts.after, session.after.
	perStep := 6
	if len(events) != perStep*len(tr.Commands) {
		t.Fatalf("%d hook events, want %d", len(events), perStep*len(tr.Commands))
	}
	for i := 0; i < len(tr.Commands); i++ {
		got := events[i*perStep : (i+1)*perStep]
		want := []string{
			fmt.Sprintf("opts:before:%d", i), fmt.Sprintf("session:before:%d", i),
			fmt.Sprintf("opts:resolve:%d", i), fmt.Sprintf("session:resolve:%d", i),
			fmt.Sprintf("opts:after:%d", i), fmt.Sprintf("session:after:%d", i),
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("step %d event %d = %q, want %q (all: %v)", i, j, got[j], want[j], got)
			}
		}
	}
}

func TestOnResolveSeesResolutionBeforeExecution(t *testing.T) {
	// A failing resolution still reaches OnResolve, with the error set.
	tr := command.Trace{
		StartURL: apps.SitesURL,
		Commands: []command.Command{{
			Action: command.Type, XPath: `//canvas[@id="nonexistent"]`, Key: "a", Code: 65,
		}},
	}
	env := apps.NewEnv(browser.DeveloperMode)
	var resolved []Step
	s, err := New(env.Browser, Options{Hooks: []Hooks{{
		OnResolve: func(step Step, tab *browser.Tab) { resolved = append(resolved, step) },
	}}}).NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(resolved) != 1 {
		t.Fatalf("OnResolve fired %d times, want 1", len(resolved))
	}
	if resolved[0].Status != StepFailed || resolved[0].Err == nil {
		t.Errorf("failed resolution not visible to OnResolve: %+v", resolved[0])
	}
}
