package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is the live-introspection HTTP listener behind the
// commands' -debug-addr flag. Endpoints:
//
//	/healthz       liveness probe ("ok")
//	/debug/vars    expvar (runtime memstats, cmdline)
//	/debug/pprof/  the standard Go profiling suite
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug binds addr (e.g. "127.0.0.1:6060" or ":0") and serves the
// debug endpoints in a background goroutine until Close.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
