package regalloc

import (
	"context"
	"errors"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/workload"
)

// deadlineAfter is a context whose Err reports context.DeadlineExceeded
// from its k-th call on; calls counts the polls.
type deadlineAfter struct {
	context.Context
	k, calls int
}

func (c *deadlineAfter) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunContextStopsAtDeadline pins that greedy allocation polls its
// context inside the allocation loop: on a spilling kernel a deadline that
// passes mid-run ends the run with an error errors.Is matches, after more
// than one poll.
func TestRunContextStopsAtDeadline(t *testing.T) {
	opts := Options{Cfg: bankfile.RV2(4), Method: MethodNon}
	f := workload.RandomSized(5, 1500)
	res, err := Run(f.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledVRegs == 0 {
		t.Fatal("kernel does not spill; pick one that reaches the spill path")
	}

	ctx := &deadlineAfter{Context: context.Background(), k: 4}
	if _, err := RunContext(ctx, f.Clone(), opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if ctx.calls <= 1 {
		t.Fatalf("context polled %d times, want more than once", ctx.calls)
	}

	// A context that never expires changes nothing.
	live := &deadlineAfter{Context: context.Background(), k: 1 << 30}
	got, err := RunContext(live, f.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpilledVRegs != res.SpilledVRegs || got.Evictions != res.Evictions {
		t.Fatalf("RunContext = %d spilled, %d evictions; Run = %d, %d",
			got.SpilledVRegs, got.Evictions, res.SpilledVRegs, res.Evictions)
	}
	if live.calls < 2 {
		t.Fatalf("context polled %d times over a whole run, want several", live.calls)
	}
}
