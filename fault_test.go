package saqp_test

import (
	"context"
	"errors"
	"testing"

	"saqp"
)

// TestServerFaultFailureTyped drives the facade end to end under a doomed
// fault plan: every task attempt fails with a one-attempt cap, so the
// submission must surface a *saqp.TaskFailedError through Ticket.Wait.
func TestServerFaultFailureTyped(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := saqp.ServerOptions{Workers: 1}
	opts.Cluster.Faults = saqp.NewFaultPlan(saqp.FaultSpec{
		Seed: 1, TaskFailProb: 1, MaxAttempts: 1,
	})
	srv, err := fw.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sql, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.Submit(context.Background(), sql, 7)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err = tk.Wait(context.Background()); err == nil {
		t.Fatal("doomed submission should fail")
	}
	var tfe *saqp.TaskFailedError
	if !errors.As(err, &tfe) {
		t.Fatalf("Wait error = %v, want wrapped *saqp.TaskFailedError", err)
	}
	if tfe.Attempts != 1 || tfe.Query == "" || tfe.Job == "" {
		t.Fatalf("typed error fields: %+v", *tfe)
	}
	if st := srv.Stats(); st.FaultFailures != 1 {
		t.Fatalf("server stats after fault failure: %+v", st)
	}
}

// TestDefaultFaultPlanRecovers replays one TPC-H query under the default
// CI fault plan with retries enabled: the serving layer must complete it.
func TestDefaultFaultPlanRecovers(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := saqp.ServerOptions{Workers: 1, MaxRetries: 3}
	opts.Cluster.Faults = saqp.NewFaultPlan(saqp.DefaultFaultSpec(11))
	srv, err := fw.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sql, err := saqp.TPCHSQL("q1")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.Submit(context.Background(), sql, 3)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("default plan with retries should recover, got %v", err)
	}
	if res.SimSec <= 0 || res.Attempts < 1 {
		t.Fatalf("result: %+v", res)
	}
}
