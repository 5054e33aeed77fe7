// Example admission starts an in-process chronosd instance with two tenant
// budget pools (loaded from the adjacent tenants.json, the same format the
// chronosd -tenants flag reads) and plays the paper's online setting
// through the chronos/client package: jobs arrive one at a time and
// client.Admit answers accept/reject plus a plan in one round trip,
// debiting each accepted plan's expected machine time from the tenant's
// ledger. Once the pool runs dry the optimizer first squeezes plans down to
// what the remaining budget affords, then rejects with a structured reason,
// while the other tenant's pool is untouched. Admission is the only way a
// request spends a tenant's budget.
//
// Run with:
//
//	go run ./examples/admission
package main

import (
	"context"
	_ "embed"
	"fmt"
	"net"
	"os"
	"strings"

	"chronos"
	"chronos/client"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

//go:embed tenants.json
var tenantsJSON []byte

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "admission:", err)
		os.Exit(1)
	}
}

func run() error {
	pools, err := tenant.Parse(tenantsJSON)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{Tenants: pools})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	c := client.New("http://" + ln.Addr().String())
	fmt.Println("chronosd serving on", c.Replicas()[0])

	job := chronos.JobParams{
		Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5,
		TauEst: 30, TauKill: 60,
	}

	// A stream of identical deadline-critical jobs for one tenant. The
	// econ field is omitted: the pool's defaults (theta, unitPrice, rmin)
	// apply. Watch the ledger drain, the plans shrink, and the admissions
	// flip to structured rejections.
	fmt.Println("\n--- client.Admit until etl-nightly is exhausted ---")
	for i := 1; ; i++ {
		dec, err := c.Admit(ctx, client.AdmitRequest{Tenant: "etl-nightly", Job: job})
		if err != nil {
			return err
		}
		if dec.Admitted {
			fmt.Printf("job %2d: admitted r=%d machineTime=%.1f budgetRemaining=%.1f\n",
				i, dec.Plan.R, dec.Plan.MachineTime, dec.BudgetRemaining)
		} else {
			fmt.Printf("job %2d: rejected (%s) budgetRemaining=%.1f\n",
				i, dec.Reason, dec.BudgetRemaining)
			break
		}
		if i > 50 {
			return fmt.Errorf("pool never exhausted after %d admits", i)
		}
	}

	// Pools are isolated: the other tenant still admits the same job.
	fmt.Println("\n--- client.Admit against ad-hoc ---")
	dec, err := c.Admit(ctx, client.AdmitRequest{Tenant: "ad-hoc", Job: job})
	if err != nil {
		return err
	}
	if !dec.Admitted {
		return fmt.Errorf("ad-hoc rejected its first job: %s", dec.Reason)
	}
	fmt.Printf("admitted r=%d machineTime=%.1f budgetRemaining=%.1f\n",
		dec.Plan.R, dec.Plan.MachineTime, dec.BudgetRemaining)

	// Per-tenant observability: admits, rejects by reason, plans by
	// strategy, and the live ledger levels.
	fmt.Println("\n--- client.Metrics (tenant excerpt) ---")
	metricsText, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(metricsText, "\n") {
		if strings.HasPrefix(line, "chronosd_tenant_") {
			fmt.Println(line)
		}
	}

	cancel()
	return <-done
}
