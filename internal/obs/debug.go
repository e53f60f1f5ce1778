package obs

import (
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is a running debug/metrics HTTP server handle. Close shuts
// it down and releases the listener, so tools and tests can stop it
// deterministically instead of leaking it for the process lifetime.
type DebugServer struct {
	// Addr is the bound address (host:port), useful with a ":0" request.
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Close shuts the server down immediately (in-flight scrapes are
// dropped, which is fine for a diagnostics endpoint) and frees the
// listener. The listener is closed explicitly: http.Server.Close only
// covers listeners the Serve goroutine has already registered, so a
// fast Close after ServeDebug could otherwise leak the port. Safe to
// call more than once.
func (s *DebugServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	if cerr := s.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
		err = cerr
	}
	return err
}

// ServeDebug starts an HTTP server on addr exposing the repository's
// debug surface:
//
//   - /debug/pprof/ — net/http/pprof
//   - /debug/vars — expvar's standard cmdline and memstats variables
//   - /metrics — Prometheus text exposition of the registry plus the Go
//     runtime collector (MetricsHandler)
//   - /debug/metrics.json — the live Snapshot as JSON (SnapshotHandler;
//     the endpoint crtop polls)
//
// Pass ":0" to pick a free port; the bound address is in the returned
// handle's Addr. The server runs on its own mux (nothing leaks into
// http.DefaultServeMux) until the handle's Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/debug/metrics.json", SnapshotHandler(reg))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}
