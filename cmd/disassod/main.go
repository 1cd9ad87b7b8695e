// Command disassod serves published disassociated datasets over HTTP — the
// long-running analyst-facing counterpart of the one-shot disasso tool. A
// publisher uploads a dataset once; the daemon anonymizes it, builds the
// inverted query index, and then serves itemset support estimates,
// reconstruction samples, utility metrics and publication stats to any
// number of concurrent clients. The daemon holds every publication and its
// original records in memory; stream=1 only derives the shard cut from
// membudget, as the bounded-memory streaming engine of `disasso -stream`
// would, and publishes the same bytes.
//
// Usage:
//
//	disassod -addr :8080
//
// Endpoints (see the repository README for an example curl session):
//
//	GET    /healthz
//	GET    /v1/datasets
//	POST   /v1/datasets/{name}?k=5&m=2[&shardrecords=N][&stream=1&membudget=256M][&safe=1][&replace=1]
//	DELETE /v1/datasets/{name}
//	POST   /v1/datasets/{name}/append         body: records, one per line
//	POST   /v1/datasets/{name}/remove         body: records, one per line
//	GET    /v1/datasets/{name}/stats
//	POST   /v1/datasets/{name}/support        {"itemsets": [[3,17],[42]]}
//	GET    /v1/datasets/{name}/support?itemset=3,17
//	POST   /v1/datasets/{name}/reconstruct    {"samples": 2, "seed": 7}
//	GET    /v1/datasets/{name}/metrics
//	GET    /v1/datasets/{name}/breaches
//
// A publish takes safe=1 for safe disassociation, which repairs every
// cover-problem breach before the snapshot is installed, and replace=1 to
// republish over an existing name (without it, an existing name is a 409).
// The breaches endpoint serves the cover-problem breach audit of the
// current snapshot, computed on its first request and cached with it.
//
// Append and remove are incremental delta republishes: each produces a new
// immutable snapshot version whose bytes are identical to a from-scratch
// publish of the updated records, but only the shards the delta touches are
// re-anonymized (publish with shardrecords > 0, or stream=1, to enable
// sharding). Every dataset, streamed or not, takes deltas and metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disasso"
	"disasso/internal/dataset"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		maxBody  = flag.String("max-body", "", "request body cap, bytes with optional K/M/G suffix (default 64M)")
		maxRecon = flag.Int("max-reconstructions", 0, "per-request reconstruction sample cap (default 16)")
		dataDir  = flag.String("data-dir", "", "directory for persistent snapshot files; publications survive restarts (default in-memory only)")
	)
	flag.String("tmpdir", "", "ignored: the daemon writes no spill files; accepted so older command lines still parse")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *maxBody, *maxRecon, *dataDir, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "disassod:", err)
		os.Exit(1)
	}
}

// run starts the HTTP service and blocks until the context is canceled or
// the listener fails; progress goes to logw. With a data directory, the
// registry is recovered from its snapshot files before the listener opens —
// O(files), no re-anonymization — so the first request already sees every
// surviving dataset.
func run(ctx context.Context, addr, maxBody string, maxRecon int, dataDir string, logw io.Writer) error {
	bodyCap, err := dataset.ParseByteSize(maxBody)
	if err != nil {
		return err
	}
	logger := log.New(logw, "disassod: ", log.LstdFlags)
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
	}
	handler := disasso.NewServer(disasso.ServerOptions{
		MaxBodyBytes:       bodyCap,
		MaxReconstructions: maxRecon,
		DataDir:            dataDir,
		Logf:               logger.Printf,
	})
	if dataDir != "" {
		rep, err := handler.Recover()
		if err != nil {
			return fmt.Errorf("recovering %s: %w", dataDir, err)
		}
		logger.Printf("recovered %d dataset(s) from %s", len(rep.Loaded), dataDir)
		for _, name := range rep.Loaded {
			logger.Printf("recovered dataset %q", name)
		}
		for _, sk := range rep.Skipped {
			logger.Printf("skipped %s: %s", sk.File, sk.Reason)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}
	logger.Printf("serving on %s", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
