package browser

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/htmlparse"
	"github.com/dslab-epfl/warr/internal/layout"
	"github.com/dslab-epfl/warr/internal/netsim"
)

// ConsoleLevel classifies console entries.
type ConsoleLevel int

// Console levels.
const (
	ConsoleLog ConsoleLevel = iota + 1
	ConsoleError
)

func (l ConsoleLevel) String() string {
	switch l {
	case ConsoleLog:
		return "log"
	case ConsoleError:
		return "error"
	default:
		return "unknown"
	}
}

// ConsoleEntry is one line of browser console output.
type ConsoleEntry struct {
	Level   ConsoleLevel
	Message string
	Time    time.Time
}

// FrameObserver is notified of frame lifecycle changes. The webdriver's
// ChromeDriver-style master uses these notifications to manage its
// per-frame clients; the deliberately scrambled ordering during
// navigation reproduces the unload bug the paper fixes (§IV-C).
type FrameObserver interface {
	FrameLoaded(f *Frame)
	FrameUnloaded(f *Frame)
}

// Popup is a browser-level dialog (window.alert). Interaction with it is
// NOT routed through the engine's EventHandler — the recorder limitation
// the paper documents in §IV-D.
type Popup struct {
	Text string
}

// maxRedirects bounds redirect chains during navigation.
const maxRedirects = 5

// Tab is one browser tab ("Tab contents" in Fig. 2).
type Tab struct {
	browser  *Browser
	renderer *Renderer
	main     *Frame

	console   []ConsoleEntry
	observers []FrameObserver
	popup     *Popup

	viewportW int

	// pendingNavs holds navigations requested during event dispatch
	// (link clicks, form submits, location.href writes); they run when
	// the tab pumps its event loop.
	pendingNavs []pendingNav

	// focused tracks which frame holds keyboard focus.
	focusFrame *Frame
}

type pendingNav struct {
	url    string
	method string
	body   string
}

func newTab(b *Browser) *Tab {
	t := &Tab{browser: b, viewportW: layout.DefaultViewportWidth}
	t.renderer = newRenderer(t)
	t.main = newFrame(t, nil, nil)
	t.main.doc = dom.NewDocument("about:blank")
	t.main.interp = newFrameInterp(t.main)
	t.focusFrame = t.main
	return t
}

// Browser returns the owning browser.
func (t *Tab) Browser() *Browser { return t.browser }

// Renderer returns the tab's renderer (the IPC layer of Fig. 2/3).
func (t *Tab) Renderer() *Renderer { return t.renderer }

// EventHandler returns the engine-level event handler, where recorder
// hooks live.
func (t *Tab) EventHandler() *EventHandler { return t.renderer.EventHandler() }

// MainFrame returns the tab's top-level frame.
func (t *Tab) MainFrame() *Frame { return t.main }

// URL returns the main document's URL.
func (t *Tab) URL() string { return t.main.doc.URL }

// Title returns the main document's title.
func (t *Tab) Title() string { return t.main.doc.Title() }

// SetViewportWidth changes the layout viewport.
func (t *Tab) SetViewportWidth(w int) {
	if w > 0 {
		t.viewportW = w
	}
}

// AddFrameObserver attaches a lifecycle observer.
func (t *Tab) AddFrameObserver(o FrameObserver) {
	t.observers = append(t.observers, o)
}

// Console returns a copy of the console log.
func (t *Tab) Console() []ConsoleEntry {
	out := make([]ConsoleEntry, len(t.console))
	copy(out, t.console)
	return out
}

// ConsoleErrors returns only the error-level console entries.
func (t *Tab) ConsoleErrors() []ConsoleEntry {
	var out []ConsoleEntry
	for _, e := range t.console {
		if e.Level == ConsoleError {
			out = append(out, e)
		}
	}
	return out
}

// ClearConsole drops accumulated console output.
func (t *Tab) ClearConsole() { t.console = nil }

func (t *Tab) logConsole(level ConsoleLevel, msg string) {
	t.console = append(t.console, ConsoleEntry{
		Level:   level,
		Message: msg,
		Time:    t.browser.clock.Now(),
	})
}

// ---- navigation ----

// Navigate loads url into the tab's main frame, replacing the current
// page. Scripts run during load; asynchronous work (timers, AJAX)
// proceeds as the virtual clock advances.
func (t *Tab) Navigate(rawURL string) error {
	return t.navigate(rawURL, "GET", "")
}

func (t *Tab) navigate(rawURL, method, body string) error {
	resp, finalURL, err := t.fetchFollowingRedirects(rawURL, method, body)
	if err != nil {
		return fmt.Errorf("browser: navigating to %q: %w", rawURL, err)
	}

	// Tear down the old frame tree. The unload notifications are
	// interleaved after the new frame's load notification below,
	// reproducing Chrome's lack of load/unload ordering guarantees
	// (paper §IV-C: "Chrome does not ensure this order").
	old := t.main
	old.kill()

	t.main = newFrame(t, nil, nil)
	t.focusFrame = t.main
	t.buildFrame(t.main, resp.Body, finalURL, 0)

	for _, f := range old.Descendants() {
		for _, o := range t.observers {
			o.FrameUnloaded(f)
		}
	}
	t.pump()
	return nil
}

func (t *Tab) fetchFollowingRedirects(rawURL, method, body string) (*netsim.Response, string, error) {
	cur := rawURL
	for i := 0; i <= maxRedirects; i++ {
		req := netsim.NewRequest(method, cur)
		req.Body = body
		if c := t.browser.cookieHeader(req.Host()); c != "" {
			req.SetHeader("Cookie", c)
		}
		resp, err := t.browser.network.Fetch(req)
		if err != nil {
			return nil, "", err
		}
		if sc := resp.Header["Set-Cookie"]; sc != "" {
			t.browser.storeCookie(req.Host(), sc)
		}
		if resp.Status == 302 {
			loc := resp.Header["Location"]
			if loc == "" {
				return nil, "", fmt.Errorf("redirect without Location from %q", cur)
			}
			cur = resolveAgainst(cur, loc)
			method, body = "GET", ""
			continue
		}
		return resp, cur, nil
	}
	return nil, "", fmt.Errorf("too many redirects starting at %q", rawURL)
}

// resolveAgainst resolves a possibly-relative redirect Location against
// the URL it was served from.
func resolveAgainst(base, ref string) string {
	b, err := url.Parse(base)
	if err != nil {
		return ref
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return b.ResolveReference(r).String()
}

// maxFrameDepth bounds iframe nesting.
const maxFrameDepth = 5

// buildFrame parses html into the frame, runs its scripts, and loads
// child iframes. Every load parses the served HTML: a cached tree would
// have to be cloned per load, and cloning measured no faster than
// parsing.
func (t *Tab) buildFrame(f *Frame, html, url string, depth int) {
	f.doc = htmlparse.Parse(html, url)
	f.interp = newFrameInterp(f)

	for _, o := range t.observers {
		o.FrameLoaded(f)
	}

	// Execute scripts in document order.
	for _, s := range f.doc.Root().ElementsByTag("script") {
		src := s.TextContent()
		if strings.TrimSpace(src) == "" {
			continue
		}
		_, _ = f.RunScript(src) // errors already logged to the console
	}

	// Wire inline on* handlers (onclick, oninput, ...).
	wireInlineHandlers(f)

	// Load iframes.
	if depth >= maxFrameDepth {
		return
	}
	for _, el := range f.doc.Root().ElementsByTag("iframe") {
		child := newFrame(t, f, el)
		child.name = el.AttrOr("name", "")
		f.children = append(f.children, child)
		if src := el.AttrOr("src", ""); src != "" {
			child.hasSrc = true
			abs := f.resolveURL(src)
			resp, finalURL, err := t.fetchFollowingRedirects(abs, "GET", "")
			if err != nil {
				t.logConsole(ConsoleError, fmt.Sprintf("iframe load %q: %v", abs, err))
				child.doc = dom.NewDocument(abs)
				child.interp = newFrameInterp(child)
				continue
			}
			t.buildFrame(child, resp.Body, finalURL, depth+1)
			continue
		}
		// A src-less iframe: its inline children become the child
		// document's body content. Chrome loads no ChromeDriver client
		// for these frames (§IV-C).
		child.hasSrc = false
		child.doc = dom.NewDocument(url + "#srcless")
		child.interp = newFrameInterp(child)
		for _, c := range el.Children() {
			child.doc.Body().AppendChild(c)
		}
		for _, o := range t.observers {
			o.FrameLoaded(child)
		}
		for _, s := range child.doc.Root().ElementsByTag("script") {
			if strings.TrimSpace(s.TextContent()) != "" {
				_, _ = child.RunScript(s.TextContent())
			}
		}
		wireInlineHandlers(child)
	}
}

// scheduleNavigate queues a navigation to run at the next pump, so that
// navigation triggered inside event dispatch does not tear down the frame
// mid-dispatch.
func (t *Tab) scheduleNavigate(url string) {
	t.pendingNavs = append(t.pendingNavs, pendingNav{url: url, method: "GET"})
}

func (t *Tab) scheduleNavigatePost(url, body string) {
	t.pendingNavs = append(t.pendingNavs, pendingNav{url: url, method: "POST", body: body})
}

// Pump runs one turn of the browser event loop: deferred navigations and
// due timers. The engine pumps automatically after hardware input; tools
// that dispatch synthetic events directly (the webdriver) must pump
// explicitly so that navigations their event handlers schedule actually
// run.
func (t *Tab) Pump() { t.pump() }

// pump runs deferred navigations and due zero-delay timers — one turn of
// the browser event loop.
func (t *Tab) pump() {
	for len(t.pendingNavs) > 0 {
		nav := t.pendingNavs[0]
		t.pendingNavs = t.pendingNavs[1:]
		if err := t.navigate(nav.url, nav.method, nav.body); err != nil {
			t.logConsole(ConsoleError, err.Error())
		}
	}
	t.browser.clock.RunDue()
}

// ---- layout & hit testing ----

// Layout returns the main frame's current layout (cached between DOM
// mutations; see Frame.Layout).
func (t *Tab) Layout() *layout.Layout {
	return t.main.Layout(t.viewportW)
}

// HitTest maps window coordinates to the frame and deepest element under
// them, descending through iframes.
func (t *Tab) HitTest(x, y int) (*Frame, *dom.Node) {
	return t.hitTestFrame(t.main, x, y, t.viewportW)
}

func (t *Tab) hitTestFrame(f *Frame, x, y, width int) (*Frame, *dom.Node) {
	l := f.Layout(width)
	n := l.HitTest(x, y)
	if n == nil {
		return f, nil
	}
	if n.Tag == "iframe" {
		if child := t.childFrameOf(f, n); child != nil {
			box, ok := l.BoxOf(n)
			if ok {
				cf, cn := t.hitTestFrame(child, x-box.X, y-box.Y, box.W)
				if cn != nil {
					return cf, cn
				}
			}
			return child, childBodyOf(child)
		}
	}
	return f, n
}

func childBodyOf(f *Frame) *dom.Node {
	if f.doc == nil {
		return nil
	}
	return f.doc.Body()
}

func (t *Tab) childFrameOf(f *Frame, iframeEl *dom.Node) *Frame {
	for _, c := range f.children {
		if c.element == iframeEl {
			return c
		}
	}
	return nil
}

// AbsoluteCenter returns window coordinates of the center of n, which
// lives in frame f, accounting for iframe offsets. ok is false when the
// element has no box.
func (t *Tab) AbsoluteCenter(f *Frame, n *dom.Node) (x, y int, ok bool) {
	// Offset chain from the main frame down to f.
	offX, offY := 0, 0
	width := t.viewportW
	chain := frameChain(f)
	for _, step := range chain {
		if step.element == nil {
			continue
		}
		parentLayout := step.parent.Layout(width)
		box, found := parentLayout.BoxOf(step.element)
		if !found {
			return 0, 0, false
		}
		offX += box.X
		offY += box.Y
		width = box.W
	}
	l := f.Layout(width)
	box, found := l.BoxOf(n)
	if !found {
		return 0, 0, false
	}
	cx, cy := box.Center()
	return offX + cx, offY + cy, true
}

// frameChain lists ancestors from the main frame down to f (inclusive),
// filled back to front in one allocation — this sits on the replayer's
// per-command element-targeting path.
func frameChain(f *Frame) []*Frame {
	depth := 0
	for cur := f; cur != nil; cur = cur.parent {
		depth++
	}
	chain := make([]*Frame, depth)
	for cur := f; cur != nil; cur = cur.parent {
		depth--
		chain[depth] = cur
	}
	return chain
}

// ---- focus ----

func (t *Tab) focusedFrame() *Frame {
	if t.focusFrame != nil && t.focusFrame.alive {
		return t.focusFrame
	}
	return t.main
}

// setFocus moves focus to the nearest focusable ancestor of target.
func (t *Tab) setFocus(f *Frame, target *dom.Node) {
	focusable := target
	for cur := target; cur != nil; cur = cur.Parent() {
		if cur.Type != dom.ElementNode {
			continue
		}
		if cur.IsEditable() || cur.Tag == "button" || cur.Tag == "a" || cur.Tag == "select" {
			focusable = cur
			break
		}
	}
	t.focusFrame = f
	if f.focused == focusable {
		return
	}
	prev := f.focused
	f.focused = focusable
	if prev != nil {
		dispatchFocusEvent(prev, "blur")
	}
	if focusable != nil {
		dispatchFocusEvent(focusable, "focus")
	}
}

// ---- user input API (hardware level) ----

// Click simulates a user mouse click at window coordinates. If a popup is
// open, the click lands on the popup and never reaches the engine — the
// recorder cannot see it (paper §IV-D).
func (t *Tab) Click(x, y int) {
	if t.popup != nil {
		t.popup = nil // any click dismisses the popup
		return
	}
	t.renderer.OnMessageReceived(InputMessage{Kind: MousePressInput, X: x, Y: y, ClickCount: 1})
}

// DoubleClick simulates a double click at window coordinates.
func (t *Tab) DoubleClick(x, y int) {
	if t.popup != nil {
		t.popup = nil
		return
	}
	t.renderer.OnMessageReceived(InputMessage{Kind: MousePressInput, X: x, Y: y, ClickCount: 2})
}

// PressKey simulates one hardware keystroke.
func (t *Tab) PressKey(key string, code int, mods KeyMods) {
	if t.popup != nil {
		return
	}
	t.renderer.OnMessageReceived(InputMessage{Kind: KeyInput, Key: key, Code: code, Mods: mods})
}

// TypeText simulates typing s character by character. As in Chrome,
// typing a capital letter or shifted symbol first registers a Shift
// keystroke and then the printable keystroke with the shift modifier set
// (the paper's §IV-B Shift-combining discussion).
func (t *Tab) TypeText(s string) {
	for _, ch := range s {
		code, needsShift := KeyCodeFor(ch)
		if needsShift {
			t.PressKey(KeyShift, CodeShift, KeyMods{})
			t.PressKey(string(ch), code, KeyMods{Shift: true})
			continue
		}
		t.PressKey(string(ch), code, KeyMods{})
	}
}

// Drag simulates dragging the element under (x, y) by (dx, dy).
func (t *Tab) Drag(x, y, dx, dy int) {
	if t.popup != nil {
		return
	}
	t.renderer.OnMessageReceived(InputMessage{Kind: DragInput, X: x, Y: y, DX: dx, DY: dy})
}

// ---- popups ----

// ShowPopup opens a browser-level dialog (used by window.alert).
func (t *Tab) ShowPopup(text string) { t.popup = &Popup{Text: text} }

// PopupText returns the open popup's text and whether one is open.
func (t *Tab) PopupText() (string, bool) {
	if t.popup == nil {
		return "", false
	}
	return t.popup.Text, true
}

// DismissPopup closes the popup without going through the engine.
func (t *Tab) DismissPopup() { t.popup = nil }

// AdvanceTime advances the browser's virtual clock (timers and AJAX
// deliveries fire as their deadlines pass).
func (t *Tab) AdvanceTime(d time.Duration) {
	t.browser.clock.Advance(d)
}
