package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/serve"
)

// serveMain is the `flatsim serve` subcommand: a long-running experiment
// service over a crash-safe content-addressed result store. It has its own
// FlagSet because its knobs (listen address, pool sizing, drain grace) are
// service configuration, not experiment parameters — experiment identity
// arrives per request, and a knob a request leaves out takes its
// experiments.Knobs() default.
func serveMain(args []string) {
	fs := flag.NewFlagSet("flatsim serve", flag.ExitOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:8447", "address to listen on (use :0 for an ephemeral port)")
		storeDir    = fs.String("store", "flatstore", "directory of the content-addressed result store")
		solvers     = fs.Int("solvers", 0, "concurrently computing cells (0 = all cores)")
		queue       = fs.Int("queue", 0, "requests that may wait for a solver before shedding with 429 (0 = 2x solvers)")
		jobParallel = fs.Int("jobparallel", 1, "worker goroutines inside one cell computation")
		drainGrace  = fs.Duration("draingrace", 10*time.Second, "how long in-flight cells may finish after SIGTERM")
		retryAfter  = fs.Duration("retryafter", time.Second, "Retry-After hint on shed (429) responses")
		codeVersion = fs.String("codeversion", "", "code-version component of content addresses (default: VCS revision, else \"dev\")")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flatsim serve [flags]\n\nServes experiment cells over HTTP:\n"+
			"  GET /v1/cell?exp=fig7&col=fat-tree/loc&kmax=8&seed=1   one cell (TSV)\n"+
			"  GET /v1/columns?exp=fig7                               column discovery\n"+
			"  GET /healthz, /metricsz                                liveness and counters\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		StoreDir:       *storeDir,
		Solvers:        *solvers,
		QueueDepth:     *queue,
		JobParallelism: *jobParallel,
		RetryAfter:     *retryAfter,
		DrainGrace:     *drainGrace,
		CodeVersion:    resolveCodeVersion(*codeVersion),
		Defaults:       experiments.DefaultConfig(),
	})
	check(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	l, err := net.Listen("tcp", *listen)
	check(err)
	st := srv.Store().Stats()
	fmt.Printf("flatsim: serving experiment cells on http://%s (store %s: %d cells, %d torn writes removed, %d quarantined)\n",
		l.Addr(), *storeDir, st.Entries, st.TornRemoved, st.Quarantined)
	check(srv.Run(ctx, l))
	st = srv.Store().Stats()
	fmt.Printf("flatsim: drained cleanly; %d cells persisted\n", st.Entries)
}

// resolveCodeVersion picks the content-address code component: the flag if
// set, else the VCS revision baked into the binary, else "dev". Different
// code must never share a content address, so a real build stamps its
// commit automatically.
func resolveCodeVersion(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "dev"
}
