package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prunesim/internal/service"
	"prunesim/internal/tenant"
)

// The HTTP workloads run the daemon's handler in this process behind a
// loopback TCP listener and load it from at most `parallelism` client
// goroutines, each with its own keyed tenant and one keep-alive connection.

// tenantKey is the API key of client i.
func tenantKey(i int) string { return fmt.Sprintf("perfbench-tenant-%d", i) }

// tenants returns a registry with n keyed tenants whose limits are far
// above anything the benchmark offers, so the bucket arithmetic runs on
// every request and never refuses one.
func tenants(n int) (*tenant.Registry, error) {
	cfg := tenant.Config{}
	for i := 0; i < n; i++ {
		cfg.Keys = append(cfg.Keys, tenant.KeyEntry{
			Key:    tenantKey(i),
			Name:   fmt.Sprintf("tenant-%d", i),
			Limits: tenant.Limits{RateQPS: 1e6, Burst: 1e6, MaxInFlight: 1000},
		})
	}
	return tenant.NewRegistry(cfg)
}

// harness is one running server.
type harness struct {
	svc    *service.Server
	http   *http.Server
	base   string
	served chan error
	timer  *handlerTimer // nil when untraced
}

// startHarness starts svc's handler on a loopback port. A non-nil tracer
// wraps the handler in a timing middleware.
func startHarness(svc *service.Server, tr *Tracer) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := &harness{svc: svc, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var handler http.Handler = svc.Handler()
	if tr != nil {
		h.timer = &handlerTimer{next: handler, tr: tr}
		handler = h.timer
	}
	h.http = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { h.served <- h.http.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for open requests and the serve loop,
// then closes the server (which drains its workers and closes its store).
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serveErr := <-h.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	h.svc.Close()
	return err
}

// rejected is the number of requests the tenancy layer refused.
func (h *harness) rejected() int64 {
	m := h.svc.Metrics()
	return m.RateLimited.Load() + m.InflightRejected.Load() + m.Unauthorized.Load()
}

// client is one tenant's connection to a harness.
type client struct {
	base string
	key  string
	hc   *http.Client
	seq  atomic.Int64 // request numbers for the handler timer, when traced
}

func newClient(h *harness, i int) *client {
	return &client{
		base: h.base,
		key:  tenantKey(i),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqHeader carries a request's number to the handler timer.
const reqHeader = "X-Perfbench-Req"

// do sends one request and returns the status, the body and the request
// number. A nil body sends none.
func (c *client) do(method, path string, body []byte) (int, []byte, int64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("X-API-Key", c.key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	n := c.seq.Add(1)
	req.Header.Set(reqHeader, strconv.FormatInt(n, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, n, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, n, err
}

// handlerTimer is the traced pass's middleware: a span around every request
// the server handles, named by route, plus each request's handler time by
// tenant and request number, so the client can subtract it from the
// latency it observed.
type handlerTimer struct {
	next http.Handler
	tr   *Tracer

	mu      sync.Mutex
	handled map[handledKey]int64 // ns
}

type handledKey struct {
	tenant string
	n      int64
}

// handlerNS returns the handler time of one request.
func (t *handlerTimer) handlerNS(tenant string, n int64) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns, ok := t.handled[handledKey{tenant, n}]
	return ns, ok
}

// routeName maps a request to a span name.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/decide/batch"):
		return "service.handler.decide_batch"
	case strings.HasSuffix(p, "/decide"):
		return "service.handler.decide"
	case strings.HasSuffix(p, "/complete"):
		return "service.handler.complete"
	case strings.Contains(p, "/machines/"):
		return "service.handler.machine"
	case p == "/v1/jobs" && r.Method == http.MethodPost:
		return "service.handler.submit"
	case strings.HasSuffix(p, "/events"):
		return "service.handler.events"
	case strings.HasSuffix(p, "/trials.csv"):
		return "service.handler.trials_csv"
	}
	return "service.handler.other"
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := t.tr.Now()
	t.next.ServeHTTP(w, r)
	end := t.tr.Now()
	n, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	t.tr.Record(routeName(r), n, start, end)
	t.mu.Lock()
	if t.handled == nil {
		t.handled = make(map[handledKey]int64)
	}
	t.handled[handledKey{r.Header.Get("X-API-Key"), n}] = end - start
	t.mu.Unlock()
}
