// Package netsim provides the in-memory network connecting the simulated
// browser to simulated web application servers. It models what the paper
// needs from a network and nothing more: request/response exchange with
// configurable latency (so timing errors are reproducible on the virtual
// clock) and HTTPS semantics (so the proxy-based-recorder discussion in
// §II is testable: a proxy cannot read encrypted bodies without breaking
// end-to-end security).
package netsim

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/dslab-epfl/warr/internal/vclock"
)

// Request is an HTTP-like request.
type Request struct {
	Method string
	URL    string // absolute, e.g. "https://sites.test/edit?page=home"
	Header map[string]string
	Body   string

	// Form holds parsed query/body parameters (populated by ParseForm).
	Form url.Values

	// parsed caches url.Parse(URL); parsedFor guards against callers
	// rewriting the URL field after the first accessor ran. Host, Path,
	// and routing each need the parsed form, and re-parsing per call
	// was the single largest allocator on the campaign hot path.
	parsed    *url.URL
	parsedFor string
}

// parseURL returns the parsed form of the request URL, cached while
// the URL field is unchanged.
func (r *Request) parseURL() (*url.URL, error) {
	if r.parsed != nil && r.parsedFor == r.URL {
		return r.parsed, nil
	}
	u, err := url.Parse(r.URL)
	if err != nil {
		return nil, err
	}
	r.parsed, r.parsedFor = u, r.URL
	return u, nil
}

// NewRequest returns a request for the given URL. The Header map is
// created lazily by SetHeader — most simulated requests carry no
// headers, and the hot fetch paths fire thousands of them.
func NewRequest(method, rawURL string) *Request {
	return &Request{Method: method, URL: rawURL}
}

// SetHeader sets one request header, creating the Header map on first
// use.
func (r *Request) SetHeader(name, value string) {
	if r.Header == nil {
		r.Header = make(map[string]string, 1)
	}
	r.Header[name] = value
}

// ParseForm populates Form from the URL query and, for POST, the body.
func (r *Request) ParseForm() error {
	u, err := r.parseURL()
	if err != nil {
		return fmt.Errorf("netsim: parsing url %q: %w", r.URL, err)
	}
	r.Form = u.Query()
	if r.Method == "POST" && r.Body != "" {
		body, err := url.ParseQuery(r.Body)
		if err != nil {
			return fmt.Errorf("netsim: parsing body: %w", err)
		}
		for k, vs := range body {
			for _, v := range vs {
				r.Form.Add(k, v)
			}
		}
	}
	return nil
}

// Host returns the request's host component ("" for unparsable URLs).
func (r *Request) Host() string {
	u, err := r.parseURL()
	if err != nil {
		return ""
	}
	return u.Host
}

// Path returns the request's path component ("/" when empty).
func (r *Request) Path() string {
	u, err := r.parseURL()
	if err != nil || u.Path == "" {
		return "/"
	}
	return u.Path
}

// Secure reports whether the request travels over HTTPS.
func (r *Request) Secure() bool {
	return strings.HasPrefix(r.URL, "https://")
}

// Response is an HTTP-like response.
type Response struct {
	Status      int
	ContentType string
	Header      map[string]string
	Body        string
}

// OK returns a 200 text/html response.
func OK(body string) *Response {
	return &Response{Status: 200, ContentType: "text/html", Header: make(map[string]string), Body: body}
}

// NotFound returns a 404 response.
func NotFound() *Response {
	return &Response{Status: 404, ContentType: "text/html", Header: make(map[string]string), Body: "<html><body><h1>404 Not Found</h1></body></html>"}
}

// Handler serves requests for one host.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Response

// Serve implements Handler.
func (f HandlerFunc) Serve(req *Request) *Response { return f(req) }

// TrafficRecord is what a network-level observer (a Fiddler-style proxy)
// sees for one exchange. For HTTPS traffic the bodies and the path are
// blank: without breaking end-to-end security a proxy sees only the
// connection metadata — the reason the paper rejects proxy-based
// recording (§II).
type TrafficRecord struct {
	Time         time.Time
	Method       string
	URL          string // full URL for HTTP; scheme+host only for HTTPS
	RequestBody  string
	ResponseBody string
	Status       int
	Encrypted    bool
}

// Observer is notified of every exchange crossing the network.
type Observer interface {
	Observe(rec TrafficRecord)
}

// Network routes requests to registered hosts with configurable latency.
type Network struct {
	mu        sync.Mutex
	clock     *vclock.Clock
	hosts     map[string]Handler
	latency   time.Duration
	observers []Observer
}

// New returns a network driven by the given clock.
func New(clock *vclock.Clock) *Network {
	return &Network{clock: clock, hosts: make(map[string]Handler)}
}

// Register installs h as the server for host (e.g. "sites.test").
func (n *Network) Register(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = h
}

// SetLatency sets the one-way delivery delay applied by FetchAsync.
func (n *Network) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// Latency returns the configured one-way delay.
func (n *Network) Latency() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.latency
}

// AddObserver attaches a traffic observer (proxy).
func (n *Network) AddObserver(o Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observers = append(n.observers, o)
}

// Fetch synchronously resolves a request. Unknown hosts yield an error;
// handlers returning nil yield 404.
func (n *Network) Fetch(req *Request) (*Response, error) {
	n.mu.Lock()
	h, ok := n.hosts[req.Host()]
	observers := append([]Observer(nil), n.observers...)
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: no route to host %q (url %q)", req.Host(), req.URL)
	}
	resp := h.Serve(req)
	if resp == nil {
		resp = NotFound()
	}
	n.notify(observers, req, resp)
	return resp, nil
}

// FetchAsync resolves a request after the configured latency has elapsed
// on the virtual clock, then invokes cb. This is the substrate for AJAX:
// the asynchronous loading that makes web applications "more vulnerable
// to timing errors" (paper §V-B).
func (n *Network) FetchAsync(req *Request, cb func(*Response, error)) {
	n.mu.Lock()
	latency := n.latency
	n.mu.Unlock()
	n.clock.AfterFunc(latency, func() {
		resp, err := n.Fetch(req)
		cb(resp, err)
	})
}

func (n *Network) notify(observers []Observer, req *Request, resp *Response) {
	if len(observers) == 0 {
		return
	}
	rec := TrafficRecord{
		Time:         n.clock.Now(),
		Method:       req.Method,
		URL:          req.URL,
		RequestBody:  req.Body,
		ResponseBody: resp.Body,
		Status:       resp.Status,
		Encrypted:    req.Secure(),
	}
	if rec.Encrypted {
		// A proxy on an HTTPS connection sees only connection metadata.
		u, err := url.Parse(req.URL)
		if err == nil {
			rec.URL = "https://" + u.Host + "/"
		}
		rec.RequestBody = ""
		rec.ResponseBody = ""
	}
	for _, o := range observers {
		o.Observe(rec)
	}
}
