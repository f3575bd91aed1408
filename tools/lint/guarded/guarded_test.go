package guarded_test

import (
	"strings"
	"testing"

	"prescount/tools/lint/analysis"
	"prescount/tools/lint/guarded"
	"prescount/tools/lint/linttest"
)

// servingPkg is a package where the guards: annotation is mandatory.
const servingPkg = "prescount/internal/server"

func check(t *testing.T, pkgPath, src string) []analysis.Diagnostic {
	t.Helper()
	return linttest.Check(t, guarded.Analyzer, pkgPath, "fix.go", src)
}

// wantDiags asserts that each substring matches exactly one diagnostic, in
// order, and that no extra diagnostics were reported.
func wantDiags(t *testing.T, diags []analysis.Diagnostic, subs ...string) {
	t.Helper()
	if len(diags) != len(subs) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(subs), render(diags))
	}
	for i, sub := range subs {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, sub)
		}
	}
}

func render(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.Message + "\n")
	}
	return b.String()
}

func TestLockSpans(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type counter struct {
	mu    sync.Mutex // guards: n, names
	n     int
	names map[string]int
	max   int
}

func (c *counter) inline() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) unguardedField() int {
	return c.max // max is not in the guards: list
}

func (c *counter) bad() int {
	return c.n
}

func (c *counter) afterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.names["x"]++
}
`)
	wantDiags(t, diags,
		"c.n accessed without c.mu held",
		"c.names accessed without c.mu held")
}

// A Lock inside a branch must not excuse accesses after the branch, and a
// span opened before a branch must cover the branch body.
func TestBranchesDoNotLeakLocks(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type counter struct {
	mu sync.Mutex // guards: n
	n  int
	on bool
}

func (c *counter) condLock() {
	if c.on {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n++
}

func (c *counter) spanCoversBranch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.on {
		c.n++
	}
	for i := 0; i < 3; i++ {
		c.n += i
	}
}
`)
	wantDiags(t, diags, "c.n accessed without c.mu held")
}

func TestHoldsAnnotation(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type cache struct {
	mu    sync.Mutex // guards: bytes, head
	bytes int
	head  int
}

// evict trims the budget.
// holds: mu
func (c *cache) evict() {
	c.bytes = 0
	c.head = 0
}

func (c *cache) settle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evict()
}

func (c *cache) unguardedCall() {
	c.evict()
}
`)
	wantDiags(t, diags, "c.evict called without c.mu held")
}

func TestHoldsUnknownMutex(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type cache struct {
	mu sync.Mutex // guards: bytes
	bytes int
}

// holds: lock
func (c *cache) evict() {
	c.mu.Lock()
	c.bytes = 0
	c.mu.Unlock()
}
`)
	wantDiags(t, diags, `holds: annotation on evict names "lock"`)
}

func TestUnannotatedMutexInServingPackage(t *testing.T) {
	src := `package p

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
`
	wantDiags(t, check(t, servingPkg, src),
		"has no guards: annotation")
	// Outside the serving stack the convention is opt-in.
	wantDiags(t, check(t, "prescount/internal/core", src))
}

func TestGuardsNoneAndBadNames(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type store struct {
	// quarMu serializes renames against the filesystem.
	// guards: none
	quarMu sync.Mutex

	mu sync.Mutex // guards: entries, typo, mu
	entries int
}

func (s *store) ok() {
	s.quarMu.Lock()
	s.entries = 1
	s.quarMu.Unlock()
}
`)
	wantDiags(t, diags,
		`names "typo", which is not a field of store`,
		"names the mutex itself",
		// quarMu guards nothing, so holding it does not license the
		// mu-guarded entries write.
		"s.entries accessed without s.mu held")
}

func TestConstructorExempt(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type counter struct {
	mu sync.Mutex // guards: n, names
	n  int
	names map[string]int
}

func newCounter() *counter {
	c := &counter{names: map[string]int{}}
	c.n = 1
	c.names["boot"] = 1
	return c
}
`)
	wantDiags(t, diags)
}

// A goroutine launched inside a Lock span runs concurrently: it must take
// the lock itself.
func TestGoroutineStartsUnlocked(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type counter struct {
	mu sync.Mutex // guards: n
	n  int
}

func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++
	}()
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}
`)
	wantDiags(t, diags, "c.n accessed without c.mu held")
}

func TestRWMutexAndNestedBase(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type metrics struct {
	mu   sync.RWMutex // guards: byName
	byName map[string]int
}

type server struct {
	metrics *metrics
}

func (s *server) read(k string) int {
	s.metrics.mu.RLock()
	defer s.metrics.mu.RUnlock()
	return s.metrics.byName[k]
}

func (s *server) wrongInstance(o *metrics) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return s.metrics.byName["x"] // locked o, not s.metrics
}
`)
	wantDiags(t, diags, "s.metrics.byName accessed without s.metrics.mu held")
}

// Inside a select, each communication clause is its own branch.
func TestSelectClauses(t *testing.T) {
	diags := check(t, servingPkg, `package server

import "sync"

type worker struct {
	mu   sync.Mutex // guards: jobs
	jobs int
	ch   chan int
}

func (w *worker) run() {
	select {
	case n := <-w.ch:
		w.mu.Lock()
		w.jobs += n
		w.mu.Unlock()
	default:
		w.jobs++
	}
}
`)
	wantDiags(t, diags, "w.jobs accessed without w.mu held")
}
