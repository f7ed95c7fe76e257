package main

import (
	"log"
	"net/http"
	"net/http/pprof"
)

// pprofMux carries net/http/pprof and nothing else. The service mux
// (newServerWith) never carries these routes: -pprof gives them a listener
// of their own, so the profiling surface is reachable only where the
// operator put it — bind it to loopback.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// servePprof serves pprofMux on addr until the process exits; a profile
// in flight does not hold up the drain.
func servePprof(addr string) {
	log.Printf("spand: pprof on %s", addr)
	log.Printf("spand: pprof: %v", http.ListenAndServe(addr, pprofMux()))
}
