package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/graphsd/graphsd/internal/loadgen"
	"github.com/graphsd/graphsd/internal/server"
)

// cmdBenchServe runs the closed-loop serving benchmark against a live
// `graphsd serve` instance and writes the BENCH_serve.json report: p50/p99
// submit-to-done latency, jobs/sec, and per-tenant fairness shares. The CI
// serve-slo job gates on the report's floors.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8090", "server base URL")
	graphName := fs.String("graph", "", "graph to run jobs against")
	algos := fs.String("algorithms", "pr,bfs,cc", "comma-separated algorithm mix")
	workers := fs.Int("workers", 2, "closed-loop workers per tenant")
	burst := fs.Int("burst", 1, "jobs each worker keeps in flight (a deep burst floods the admission queue without extra polling goroutines)")
	duration := fs.Duration("duration", 5*time.Second, "how long to keep submitting")
	vertices := fs.Int("vertices", 0, "graph vertex count, for random job sources (0: always source 0)")
	maxIters := fs.Int("max-iterations", 4, "iteration cap per submitted job (keeps bench jobs short)")
	mutateEvery := fs.Int("mutate-every", 0, "make every Nth operation an edge-mutation batch (0: jobs only; needs a -mutable server)")
	mutateBatch := fs.Int("mutate-batch", 16, "edge inserts per mutation batch")
	tenantsFile := fs.String("tenants", "", "tenants file (same format as serve -tenants): drive one worker pool per tenant, authenticated")
	seed := fs.Int64("seed", 1, "RNG seed for sources and mutation endpoints")
	out := fs.String("out", "", "write the JSON report here (default: stdout only)")
	minJobsPS := fs.Float64("min-jobs-per-sec", 0, "fail unless total jobs/sec reaches this floor")
	minShare := fs.Float64("min-share", 0, "fail unless every tenant's share of completed jobs reaches this floor")
	fs.Parse(args)
	if *graphName == "" {
		return fmt.Errorf("bench-serve: -graph is required")
	}

	opts := loadgen.Options{
		BaseURL:       *url,
		Graph:         *graphName,
		Algorithms:    strings.Split(*algos, ","),
		Workers:       *workers,
		Duration:      *duration,
		NumVertices:   *vertices,
		MaxIterations: *maxIters,
		MutateEvery:   *mutateEvery,
		MutateBatch:   *mutateBatch,
		Seed:          *seed,
	}
	if *tenantsFile != "" {
		ts, err := server.LoadTenantsFile(*tenantsFile)
		if err != nil {
			return fmt.Errorf("bench-serve: %w", err)
		}
		for _, t := range ts {
			opts.Tenants = append(opts.Tenants, loadgen.Tenant{Name: t.Name, Token: t.Token, Burst: *burst})
		}
	} else {
		opts.Tenants = []loadgen.Tenant{{Name: "default", Burst: *burst}}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("graphsd: bench-serve: %d tenant(s) x %d workers against %s for %v\n",
		max(1, len(opts.Tenants)), *workers, *url, *duration)
	rep, err := loadgen.Run(ctx, opts)
	if err != nil {
		return fmt.Errorf("bench-serve: %w", err)
	}

	fmt.Printf("bench-serve: %d jobs in %.1fs = %.1f jobs/s (+%d drained in %.1fs), p50=%.1fms p99=%.1fms, %d mutation batches, %d rejected, %d errors\n",
		rep.Jobs, rep.DurationS, rep.JobsPS, rep.DrainedJobs, rep.DrainS, rep.P50ms, rep.P99ms, rep.Mutates, rep.Rejected, rep.Errors)
	for _, t := range rep.Tenants {
		fmt.Printf("  tenant %-12s %6d jobs (share %.2f) %.1f jobs/s p50=%.1fms p99=%.1fms rejected=%d errors=%d\n",
			t.Name, t.Jobs, t.Share, t.JobsPS, t.P50ms, t.P99ms, t.Rejected, t.Errors)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench-serve: writing report: %w", err)
		}
		fmt.Printf("bench-serve: report written to %s\n", *out)
	}

	if *minJobsPS > 0 && rep.JobsPS < *minJobsPS {
		return fmt.Errorf("bench-serve: SLO violation: %.1f jobs/s below the %.1f floor", rep.JobsPS, *minJobsPS)
	}
	if *minShare > 0 && rep.MinShare < *minShare {
		return fmt.Errorf("bench-serve: fairness violation: min tenant share %.2f below the %.2f floor", rep.MinShare, *minShare)
	}
	return nil
}
