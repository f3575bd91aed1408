package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/workload"
)

// TestCompileContextExpiredDeadline pins the daemon's dead-client contract:
// a compile under an already-expired deadline returns promptly with an
// error wrapping context.DeadlineExceeded and leaks no goroutines.
func TestCompileContextExpiredDeadline(t *testing.T) {
	f := workload.RandomSized(7, 400)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := CompileContext(ctx, f, Options{File: bankfile.RV2(2), Method: MethodBPC})
	if res != nil || err == nil {
		t.Fatalf("expired deadline: got res=%v err=%v, want nil result and error", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-deadline compile took %v, want prompt return", d)
	}

	// Allow the runtime a few scheduling rounds to retire exiting
	// goroutines before comparing counts.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCompileContextCancelMidRun cancels between phase boundaries via a
// deadline that expires mid-compile and checks the error classification
// holds on the single-function path too.
func TestCompileContextCancelMidRun(t *testing.T) {
	f := workload.RandomSized(8, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, f, Options{File: bankfile.RV2(4), Method: MethodBPC})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCancelledCompileNotCached pins the cache interaction: a compile
// cancelled mid-flight must not poison its cache key — the next lookup
// under a live context recomputes and matches an uncached compile.
func TestCancelledCompileNotCached(t *testing.T) {
	f := workload.RandomSized(9, 200)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	want, err := Compile(f, opts)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}

	cache := compilecache.New()
	opts.Cache = cache
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, f, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile: got %v, want context.Canceled", err)
	}
	got, err := CompileContext(context.Background(), f, opts)
	if err != nil {
		t.Fatalf("recompute after cancellation: %v", err)
	}
	compareResults(t, "recompute-after-cancel", got, want)
	if s := cache.Stats(); s.FullEntries != 1 {
		t.Fatalf("cache retained %d full entries, want exactly the recomputed one", s.FullEntries)
	}
}

// expireAt is a context whose Err reports context.DeadlineExceeded from its
// k-th call on (never, when k is 0); calls counts the polls.
type expireAt struct {
	context.Context
	k, calls int
}

func (c *expireAt) Err() error {
	c.calls++
	if c.k > 0 && c.calls >= c.k {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCompileContextReachesRegalloc pins that the compile's context reaches
// greedy allocation: some poll of a full compile happens inside regalloc,
// so a deadline there ends the compile with regalloc's wrapped error, not
// at the next phase boundary.
func TestCompileContextReachesRegalloc(t *testing.T) {
	f := workload.RandomSized(5, 600)
	opts := Options{File: bankfile.RV2(4), Method: MethodBPC}
	count := &expireAt{Context: context.Background()}
	if _, err := CompileContext(count, f, opts); err != nil {
		t.Fatal(err)
	}
	// The last polls are the phase boundaries after regalloc; walk back
	// from the end until a deadline lands inside the allocator.
	for k := count.calls; k > 0; k-- {
		_, err := CompileContext(&expireAt{Context: context.Background(), k: k}, f, opts)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline at poll %d of %d: got %v, want context.DeadlineExceeded", k, count.calls, err)
		}
		if strings.Contains(err.Error(), "regalloc: "+f.Name+": ") {
			return
		}
	}
	t.Fatalf("no poll of %d landed inside regalloc", count.calls)
}
