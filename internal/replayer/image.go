package replayer

import (
	"context"
	"errors"
	"fmt"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/webdriver"
)

// This file serializes a replay session for durable world images
// (internal/image). The image is the data form of ForkFor: the trace,
// the replay position, the partial Result, the replayer's options, and
// the driver image — everything the forked-session constructor carries
// over, named by the browser image's tab/frame numbering instead of
// live pointers. Hooks are code and are never serialized; a restored
// session starts with whatever hook chain the restoring side supplies
// (the distributed executor requires none, which is what makes a
// campaign shard shippable).

// OptionsImage is the serializable subset of Options (hooks excluded).
type OptionsImage struct {
	Pacing                    Pacing            `json:"pacing"`
	DisableRelaxation         bool              `json:"disableRelaxation,omitempty"`
	DisableCoordinateFallback bool              `json:"disableCoordinateFallback,omitempty"`
	Driver                    webdriver.Options `json:"driver"`
}

// Image returns the serializable subset of the options; hooks are
// dropped.
func (o Options) Image() OptionsImage {
	return OptionsImage{
		Pacing:                    o.Pacing,
		DisableRelaxation:         o.DisableRelaxation,
		DisableCoordinateFallback: o.DisableCoordinateFallback,
		Driver:                    o.Driver,
	}
}

// Options rebuilds runnable options, with no hooks, from the image.
func (o OptionsImage) Options() Options {
	return Options{
		Pacing:                    o.Pacing,
		DisableRelaxation:         o.DisableRelaxation,
		DisableCoordinateFallback: o.DisableCoordinateFallback,
		Driver:                    o.Driver,
	}
}

// StepImage is one serialized Step. Cmd is carried verbatim; Err
// survives as its message only and is rebuilt as an opaque error.
type StepImage struct {
	Index     int             `json:"index"`
	Cmd       command.Command `json:"cmd"`
	Status    StepStatus      `json:"status"`
	UsedXPath string          `json:"usedXPath,omitempty"`
	Heuristic string          `json:"heuristic,omitempty"`
	Err       string          `json:"err,omitempty"`
	HasErr    bool            `json:"hasErr,omitempty"`
}

// ResultImage is a serialized partial Result.
type ResultImage struct {
	Steps       []StepImage `json:"steps,omitempty"`
	Played      int         `json:"played"`
	Failed      int         `json:"failed"`
	Halted      bool        `json:"halted,omitempty"`
	Cancelled   bool        `json:"cancelled,omitempty"`
	CancelCause string      `json:"cancelCause,omitempty"`
	HasCause    bool        `json:"hasCause,omitempty"`
}

// TraceImage is a serialized trace.
type TraceImage struct {
	StartURL string            `json:"startURL,omitempty"`
	Commands []command.Command `json:"commands,omitempty"`
}

// Image is the serialized form of a Session.
type Image struct {
	Opts   OptionsImage     `json:"opts"`
	Trace  TraceImage       `json:"trace"`
	Tab    int              `json:"tab"`
	Driver *webdriver.Image `json:"driver"`
	Next   int              `json:"next"`
	Result ResultImage      `json:"result"`
	Done   bool             `json:"done,omitempty"`
}

// EncodeImage serializes the session, naming its tab and the driver's
// frames through the browser image's numbering.
func (s *Session) EncodeImage(tabID func(*browser.Tab) (int, bool), frameID func(*browser.Frame) (int, bool)) (*Image, error) {
	tid, ok := tabID(s.tab)
	if !ok {
		return nil, fmt.Errorf("replayer: session tab not present in the browser image")
	}
	di, err := s.driver.EncodeImage(frameID)
	if err != nil {
		return nil, err
	}
	img := &Image{
		Opts: s.replayer.opts.Image(),
		Trace: TraceImage{
			StartURL: s.trace.StartURL,
			Commands: append([]command.Command(nil), s.trace.Commands...),
		},
		Tab:    tid,
		Driver: di,
		Next:   s.next,
		Done:   s.done,
	}
	res := s.res
	img.Result = ResultImage{
		Played:    res.Played,
		Failed:    res.Failed,
		Halted:    res.Halted,
		Cancelled: res.Cancelled,
	}
	if res.CancelCause != nil {
		img.Result.CancelCause = res.CancelCause.Error()
		img.Result.HasCause = true
	}
	for _, st := range res.Steps {
		si := StepImage{
			Index:     st.Index,
			Cmd:       st.Cmd,
			Status:    st.Status,
			UsedXPath: st.UsedXPath,
			Heuristic: st.Heuristic,
		}
		if st.Err != nil {
			si.Err = st.Err.Error()
			si.HasErr = true
		}
		img.Result.Steps = append(img.Result.Steps, si)
	}
	return img, nil
}

// DecodeImage rebuilds a session over a decoded browser world. The tab
// and frame resolvers are the decoded browser image's numbering; hooks
// is the restored session's hook chain (typically empty — hooks are
// code, not state). Step and cancellation errors come back as opaque
// errors carrying the imaged message: errors.Is identities do not
// survive an image, only the report text does.
func DecodeImage(img *Image, ctx context.Context, b *browser.Browser, hooks []Hooks, tab func(int) *browser.Tab, frame func(int) *browser.Frame) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := tab(img.Tab)
	if t == nil {
		return nil, fmt.Errorf("replayer: image names unknown tab %d", img.Tab)
	}
	if img.Driver == nil {
		return nil, fmt.Errorf("replayer: image has no driver")
	}
	d, err := webdriver.DecodeImage(img.Driver, t, frame)
	if err != nil {
		return nil, err
	}
	if img.Next < 0 || img.Next > len(img.Trace.Commands) {
		return nil, fmt.Errorf("replayer: image next %d outside trace of %d commands", img.Next, len(img.Trace.Commands))
	}
	opts := img.Opts.Options()
	opts.Hooks = hooks
	res := &Result{
		Played:    img.Result.Played,
		Failed:    img.Result.Failed,
		Halted:    img.Result.Halted,
		Cancelled: img.Result.Cancelled,
	}
	if img.Result.HasCause {
		res.CancelCause = errors.New(img.Result.CancelCause)
	}
	for _, si := range img.Result.Steps {
		st := Step{
			Index:     si.Index,
			Cmd:       si.Cmd,
			Status:    si.Status,
			UsedXPath: si.UsedXPath,
			Heuristic: si.Heuristic,
		}
		if si.HasErr {
			st.Err = errors.New(si.Err)
		}
		res.Steps = append(res.Steps, st)
	}
	return &Session{
		replayer: New(b, opts),
		ctx:      ctx,
		trace: command.Trace{
			StartURL: img.Trace.StartURL,
			Commands: append([]command.Command(nil), img.Trace.Commands...),
		},
		tab:    t,
		driver: d,
		hooks:  append([]Hooks(nil), opts.Hooks...),
		next:   img.Next,
		res:    res,
		done:   img.Done,
	}, nil
}
