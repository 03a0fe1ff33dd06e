package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"navaug/internal/fault"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
)

func runServe(c *command, args []string) error {
	fs := newFlagSet(c)
	snapPath := fs.String("snapshot", "", "path to the .navsnap file to serve (required)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "query pool size (0 = one per CPU)")
	queue := fs.Int("queue", 0, "task queue bound; excess load is shed with 429 (0 = max(16, 4x workers))")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request timeout")
	maxBatch := fs.Int("max-batch", 8192, "max pairs per batched request")
	fieldCache := fs.Int("field-cache", 64, "BFS field cache capacity (only used when the snapshot packs no O(1) tier)")
	landmarks := fs.Int("landmarks", 0, "landmark count for the approximate tier beneath the field cache, built only when the snapshot has no exact O(1) tier (0 = default 16, negative disables)")
	faults := fs.String("faults", "", "fault-injection spec, e.g. 'stall:shard=0,delay=50ms;storm:p=0.1,delay=3s' (testing only)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the fault-injection draw stream")
	drain := fs.Duration("drain", time.Second, "grace between flipping readiness and closing the listener on SIGTERM")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *snapPath == "" {
		fs.Usage()
		return fmt.Errorf("serve requires -snapshot")
	}
	var inj *fault.Injector
	if *faults != "" {
		var err error
		if inj, err = fault.Parse(*faults, *faultSeed); err != nil {
			return err
		}
	}

	// Bind before loading and serve "loading" 503s until the snapshot is in:
	// liveness is up the moment the process owns the port, readiness only
	// once queries can actually be answered.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.Handler]
	loading := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/livez" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"alive"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"loading"}`)
	}))
	handler.Store(&loading)
	// The request deadline starts with the handler, so a body that stalls
	// is bounded here: its read fails at ReadTimeout and is answered as a
	// timed-out request.
	const readHeaderTimeout = 5 * time.Second
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readHeaderTimeout + *timeout,
		IdleTimeout:       60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "navsim serve: listening on http://%s (loading)\n", ln.Addr())

	start := time.Now()
	snap, err := snapshot.ReadFileTolerant(*snapPath)
	if err != nil {
		ln.Close()
		return err
	}
	read := time.Since(start)
	if len(snap.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "navsim serve: WARNING: quarantined damaged sections %v; serving degraded\n",
			snap.Quarantined)
	}
	srv, err := serve.New(snap, serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBatch:       *maxBatch,
		FieldCacheSize: *fieldCache,
		Landmarks:      *landmarks,
		Faults:         inj,
	})
	if err != nil {
		ln.Close()
		return err
	}
	defer srv.Close()
	setup := time.Since(start) - read
	ready := srv.Handler()
	handler.Store(&ready)
	if inj != nil {
		inj.Activate()
		fmt.Fprintf(os.Stderr, "navsim serve: fault injection ACTIVE: %s\n", *faults)
	}
	fmt.Fprintf(os.Stderr, "navsim serve: loaded %s (%v) in %.3fs (snapshot read %.3fs, server set-up %.3fs); ready\n",
		*snapPath, snap.Graph, time.Since(start).Seconds(), read.Seconds(), setup.Seconds())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		// Graceful drain: flip readiness first so load balancers stop
		// sending traffic, give them the grace window, then close the
		// listener and wait for in-flight requests to complete.
		fmt.Fprintf(os.Stderr, "navsim serve: %v, draining\n", sig)
		srv.BeginDrain()
		time.Sleep(*drain)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errCh // Serve has returned ErrServerClosed by now
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
