// Command router fronts a static set of serve replicas with
// fault-tolerant request routing: per-replica circuit breakers fed by
// active /readyz probes and passive response outcomes, bounded retries
// with jittered exponential backoff across the healthy set, one attempt
// at a time, and consistent cache sharding — each request's
// sparsity fingerprint is rendezvous-hashed to a shard-owning replica,
// so the same pattern keeps landing on the same cache. Replicas never
// call each other: a request that fails over is computed where it lands.
//
//	router -addr 127.0.0.1:9090 \
//	  -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Endpoints: POST /v1/predict (routed), GET /healthz, GET /readyz
// (503 until at least one replica is in rotation), GET /metrics
// (router_* series). -admin-addr adds a separate operational listener.
//
// Overload control: retries draw from a fleet-safe token budget
// (-retry-budget-ratio, -retry-budget-burst) so a shedding cluster is
// never amplified by its own router; replica Retry-After hints pace the
// relaunches that do happen; every attempt carries its remaining
// deadline as X-Request-Deadline so replicas can refuse work they
// cannot finish in time. Admission is the replicas' own job: a 429 from
// one fails over to the next without a breaker penalty.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish within
// -drain-timeout, then the probe loop stops and a final metrics
// snapshot is logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (use :0 for an ephemeral port)")
	adminAddr := flag.String("admin-addr", "", "admin listen address for /metrics and /debug/pprof/ (empty disables)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "replica health probe cadence")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures before a replica leaves rotation")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "wait before a half-open probe retests a down replica")
	halfOpenProbes := flag.Int("half-open-probes", 2, "consecutive successes a recovering replica needs to rejoin")
	retries := flag.Int("retries", 2, "max attempt relaunches per request (total attempts = retries+1)")
	backoff := flag.Duration("backoff", 25*time.Millisecond, "base retry backoff (doubles per retry, jittered)")
	retryBudgetRatio := flag.Float64("retry-budget-ratio", 0.1, "retry tokens deposited per successful attempt (caps steady-state retries at this fraction of successes; <= 0 means the default 0.1)")
	retryBudgetBurst := flag.Int("retry-budget-burst", 10, "retry-budget token cap and starting balance")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "end-to-end deadline budget per routed request")
	maxBody := flag.Int64("max-body", 32<<20, "largest accepted request body in bytes (413 beyond)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	flag.Parse()

	if strings.TrimSpace(*replicas) == "" {
		fmt.Fprintln(os.Stderr, "router: -replicas is required")
		os.Exit(2)
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:         strings.Split(*replicas, ","),
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		HalfOpenProbes:   *halfOpenProbes,
		Retries:          *retries,
		Backoff:          *backoff,
		RetryBudgetRatio: *retryBudgetRatio,
		RetryBudgetBurst: *retryBudgetBurst,
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBody,
		Log:              os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(1)
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "router: admin listener:", err)
			os.Exit(1)
		}
		adminSrv = &http.Server{
			Handler:           obs.AdminHandler(obs.AdminConfig{Registry: rt.Metrics(), PProf: true}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		fmt.Printf("router: admin listening on http://%s\n", aln.Addr())
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "router: admin:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(1)
	}
	// The listening line goes to stdout so scripts can scrape the bound
	// address when -addr uses port 0.
	fmt.Printf("router: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}

	done := make(chan error, 1)
	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-term
		fmt.Fprintln(os.Stderr, "router: draining...")
		sctx, scancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer scancel()
		if adminSrv != nil {
			adminSrv.Shutdown(sctx)
		}
		err := srv.Shutdown(sctx)
		rt.Close()
		fmt.Fprintln(os.Stderr, "router: final metrics")
		rt.Metrics().WriteTo(os.Stderr)
		done <- err
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "router: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "router: drained cleanly")
}
