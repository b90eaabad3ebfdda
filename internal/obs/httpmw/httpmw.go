// Package httpmw instruments HTTP handlers with obs metrics: per-route
// request counts by status class, an in-flight gauge, and a request
// latency histogram. Metrics are resolved once at mount time (routes are
// static), so the per-request path only touches atomics.
package httpmw

import (
	"net/http"
	"time"

	"cellspot/internal/obs"
)

// Wrap instruments next with per-route serving metrics under the given
// route label:
//
//	http_requests_total{route,class}  counter per status class (1xx..5xx)
//	http_inflight_requests{route}     gauge
//	http_request_seconds{route}       latency histogram
//
// A nil registry yields a passthrough-cost wrapper (nil metrics no-op).
func Wrap(reg *obs.Registry, route string, next http.Handler) http.Handler {
	inflight := reg.Gauge("http_inflight_requests",
		"Requests currently being served.", obs.L("route", route))
	lat := reg.Histogram("http_request_seconds",
		"Request latency in seconds.", obs.DefBuckets, obs.L("route", route))
	var byClass [5]*obs.Counter
	classes := [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}
	for i, cl := range classes {
		byClass[i] = reg.Counter("http_requests_total",
			"Requests served, by route and status class.",
			obs.L("route", route), obs.L("class", cl))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Inc()
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(&sw, r)
		inflight.Dec()
		if c := sw.code / 100; c >= 1 && c <= 5 {
			byClass[c-1].Inc()
		}
		lat.Observe(time.Since(start).Seconds())
	})
}

// statusWriter records the first status code written; a handler that never
// calls WriteHeader implicitly serves 200.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Router is the route-registration surface the serving packages mount
// onto; both *http.ServeMux and Mux satisfy it.
type Router interface {
	HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request))
}

// Mux is an http.ServeMux whose routes are instrumented via Wrap, each
// labeled with its registered pattern.
type Mux struct {
	mux *http.ServeMux
	reg *obs.Registry
}

// NewMux returns an instrumented mux recording into reg.
func NewMux(reg *obs.Registry) *Mux {
	return &Mux{mux: http.NewServeMux(), reg: reg}
}

// Handle registers an instrumented handler for pattern; the pattern is the
// route label.
func (m *Mux) Handle(pattern string, h http.Handler) {
	m.mux.Handle(pattern, Wrap(m.reg, pattern, h))
}

// HandleFunc registers an instrumented handler function for pattern.
func (m *Mux) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	m.Handle(pattern, http.HandlerFunc(h))
}

// ServeHTTP dispatches to the instrumented routes.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}
