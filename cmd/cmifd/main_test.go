package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmif"
)

// syncBuffer is a stdout that run's goroutines may share, and that a
// test can wait on for a line to appear.
type syncBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func newSyncBuffer() *syncBuffer { return &syncBuffer{wrote: make(chan struct{}, 1)} }

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	select {
	case b.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor blocks until the output contains want; it fails the test if
// run exits first or nothing arrives within 10s.
func (b *syncBuffer) waitFor(t *testing.T, want string, exited <-chan int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for !strings.Contains(b.String(), want) {
		select {
		case <-b.wrote:
		case code := <-exited:
			t.Fatalf("run exited %d before printing %q; output:\n%s", code, want, b.String())
		case <-timeout:
			t.Fatalf("no %q after 10s; output:\n%s", want, b.String())
		}
	}
}

// fakeTier records the context its drain was handed, and whether that
// context had already expired when Shutdown was called.
type fakeTier struct {
	err         error
	shutdownCtx context.Context
	expiredAt   error
}

func (f *fakeTier) Shutdown(ctx context.Context) error {
	f.shutdownCtx, f.expiredAt = ctx, ctx.Err()
	return f.err
}

func (f *fakeTier) Close() error { return nil }

func discard(string, ...any) {}

// freeAddr reserves a loopback port for a listener the code under test
// binds itself.
func freeAddr(t *testing.T) string {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	return probe.Addr().String()
}

func TestRunLifecycle(t *testing.T) {
	reg := cmif.NewMetrics()
	addr := freeAddr(t)
	msrv, err := listenMetrics(addr, reg, discard, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	// One listener answers both the metrics and the profiler routes.
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tier := &fakeTier{}
	before := time.Now()
	if code := drain(ctx, tier, time.Minute, msrv, reg, discard, &bytes.Buffer{}); code != 0 {
		t.Fatalf("clean drain exited %d", code)
	}
	// The drain carries the grace deadline, and its context is live.
	deadline, ok := tier.shutdownCtx.Deadline()
	if !ok || deadline.Before(before.Add(time.Minute)) || deadline.After(time.Now().Add(time.Minute)) {
		t.Fatalf("Shutdown deadline = %v (set: %v), want a minute after %v", deadline, ok, before)
	}
	if tier.expiredAt != nil {
		t.Fatalf("Shutdown was handed an expired context (%v) with a one-minute grace", tier.expiredAt)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics endpoint still answers after the drain")
	}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	reg := cmif.NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// A zero grace force-closes at once: Shutdown gets an expired context.
	tier := &fakeTier{}
	if code := drain(ctx, tier, 0, nil, reg, discard, &bytes.Buffer{}); code != 0 {
		t.Fatalf("zero-grace drain exited %d, want 0", code)
	}
	if !errors.Is(tier.expiredAt, context.DeadlineExceeded) {
		t.Fatalf("zero grace handed Shutdown a context with err %v, want it already expired", tier.expiredAt)
	}
	// An expired grace period is an orderly (if noisy) shutdown.
	if code := drain(ctx, &fakeTier{err: context.DeadlineExceeded}, 0, nil, reg, discard, &bytes.Buffer{}); code != 0 {
		t.Fatalf("grace expiry exited %d, want 0", code)
	}
	// Any other shutdown error is a failure.
	if code := drain(ctx, &fakeTier{err: errors.New("bind lost")}, time.Second, nil, reg, discard, &bytes.Buffer{}); code != 1 {
		t.Fatalf("shutdown error exited %d, want 1", code)
	}
}

// TestRunFlagSurface drives run over the daemon's command lines: role
// and flag misuse exits 2, a role missing its required flags fails, and
// each role binds, prints its banner and exits 0 once cancelled.
func TestRunFlagSurface(t *testing.T) {
	origin := cmif.NewServer()
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })

	cases := []struct {
		name   string
		args   []string
		code   int    // exit code once cancelled (or at once, for errors)
		banner string // when set, run serves until cancelled after printing it
	}{
		{name: "unknown role", args: []string{"-role", "relay"}, code: 2},
		{name: "undefined flag", args: []string{"-bogus"}, code: 2},
		{name: "edge without origin", args: []string{"-role", "edge", "-cache", t.TempDir()}, code: 1},
		{name: "edge without cache", args: []string{"-role", "edge", "-origin", originAddr}, code: 1},
		{name: "node without data", args: []string{"-role", "node"}, code: 1},
		{name: "unknown sync policy", args: []string{"-data", t.TempDir(), "-sync", "sometimes"}, code: 2},
		{name: "origin flag on an edge", args: []string{"-role", "edge", "-news", "3"}, code: 2},
		{name: "node flag on an origin", args: []string{"-role", "origin", "-peers", "127.0.0.1:1"}, code: 2},
		{name: "edge flag on a node", args: []string{"-role", "node", "-data", t.TempDir(), "-cache", "x"}, code: 2},
		{
			name:   "origin",
			args:   []string{"-addr", "127.0.0.1:0", "-news", "1", "-max-concurrent", "8", "-max-queue", "16", "-max-wait", "50ms"},
			banner: "admission control: 8 concurrent, 16 queued, 50ms max wait",
		},
		{
			name:   "durable origin",
			args:   []string{"-role", "origin", "-addr", "127.0.0.1:0", "-news", "0", "-data", t.TempDir(), "-sync", "always"},
			banner: "cmifd: durable in",
		},
		{
			name:   "edge",
			args:   []string{"-role", "edge", "-addr", "127.0.0.1:0", "-origin", originAddr, "-cache", t.TempDir(), "-grace", "0"},
			banner: "cmifd: serving on 127.0.0.1:",
		},
		{
			name:   "node",
			args:   []string{"-role", "node", "-addr", "127.0.0.1:0", "-data", t.TempDir(), "-gossip-interval", "20ms"},
			banner: "cmifd: synced, 1 members known",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stdout, stderr := newSyncBuffer(), newSyncBuffer()
			exited := make(chan int, 1)
			go func() { exited <- run(ctx, tc.args, stdout, stderr) }()
			if tc.banner != "" {
				stdout.waitFor(t, tc.banner, exited)
				cancel()
			}
			select {
			case code := <-exited:
				if code != tc.code {
					t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return")
			}
			// A zero grace may force-close, which is still an orderly exit.
			if tc.banner != "" && !strings.Contains(stdout.String(), "cmifd: drained, shutting down") &&
				!strings.Contains(stderr.String(), "cmifd: grace period expired") {
				t.Fatalf("no drain line after cancellation; stdout:\n%s\nstderr:\n%s", stdout, stderr)
			}
		})
	}
}

// TestUsageNamesEveryFlag keeps the package doc's synopsis — the
// command lines and the serving-flags paragraph after them — naming
// exactly the flags register installs, so a flag added or removed
// without its usage line fails here.
func TestUsageNamesEveryFlag(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	paras := strings.Split(file.Doc.Text(), "\n\n")
	start := slices.IndexFunc(paras, func(p string) bool { return strings.HasPrefix(p, "\t") })
	if start < 0 || start+1 >= len(paras) {
		t.Fatal("package doc has no synopsis block followed by a paragraph")
	}
	synopsis := paras[start] + "\n" + paras[start+1]
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(synopsis, -1) {
		documented[m[1]] = true
	}

	fs := flag.NewFlagSet("cmifd", flag.ContinueOnError)
	var f flags
	f.register(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if !documented[fl.Name] {
			t.Errorf("flag -%s is missing from the usage synopsis", fl.Name)
		}
		delete(documented, fl.Name)
	})
	for name := range documented {
		t.Errorf("usage synopsis names -%s, which cmifd does not define", name)
	}
}
