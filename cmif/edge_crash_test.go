package cmif

// The edge-tier crash harness: the child process stands in for cmifd
// -role edge (cmif.NewEdge over an origin the parent runs in-process);
// the parent warms the child's disk cache over the real wire, SIGKILLs
// it mid-load, then restarts an edge on the same cache directory and
// verifies the recovery: byte-identical blocks served from disk with
// zero origin refetches, and document leases re-established without
// refetching the block corpus.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

const (
	edgeCrashCacheEnvVar  = "CMIF_EDGE_CRASH_CACHE"
	edgeCrashOriginEnvVar = "CMIF_EDGE_CRASH_ORIGIN"
)

// TestEdgeCrashChild is the child body, not a real test: an edge over
// the parent's origin that prints its bound address and serves until
// killed.
func TestEdgeCrashChild(t *testing.T) {
	dir := os.Getenv(edgeCrashCacheEnvVar)
	origin := os.Getenv(edgeCrashOriginEnvVar)
	if dir == "" || origin == "" {
		t.Skip("crash-harness child body; driven by TestEdgeCrashRecovery")
	}
	e, err := NewEdge(WithOrigin(origin), WithCacheDir(dir))
	if err != nil {
		t.Fatalf("child edge: %v", err)
	}
	bound, err := e.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	fmt.Printf("ADDR %s\n", bound)
	select {} // serve until the parent's SIGKILL
}

func TestEdgeCrashRecovery(t *testing.T) {
	if os.Getenv(edgeCrashCacheEnvVar) != "" {
		t.Skip("running inside the crash child")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	doc, store := genDoc(t, 71, 16)
	origin := startLiveServer(t, "live", doc, store)
	cacheDir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run", "^TestEdgeCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		edgeCrashCacheEnvVar+"="+cacheDir,
		edgeCrashOriginEnvVar+"="+origin,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var childAddr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			childAddr = rest
			break
		}
	}
	if childAddr == "" {
		t.Fatal("child edge never reported its address")
	}

	c, err := Dial(ctx, childAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm the child: every referenced block crosses origin → edge disk
	// once, and the document is leased.
	names := doc.ExternalFiles()
	if len(names) == 0 {
		t.Fatal("fixture references no external blocks; widen the corpus")
	}
	warm, err := c.Blocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range warm {
		if b == nil {
			t.Fatalf("child edge missed block %q", names[i])
		}
	}
	if _, err := c.Document(ctx, "live", WithBinaryWire()); err != nil {
		t.Fatal(err)
	}

	// SIGKILL mid-load: keep the child under continuous fetch traffic and
	// kill it without warning. In-flight requests die with it; the disk
	// cache must not.
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			if _, err := c.Blocks(ctx, names); err != nil {
				return // the kill landed
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	<-loadDone

	// Restart on the populated cache directory: the corpus must be served
	// byte-identically from disk with zero origin round trips.
	e2, addr2 := startEdge(t, origin, cacheDir)
	if ds := e2.DiskStats(); ds.Blocks == 0 {
		t.Fatal("restarted edge recovered an empty disk cache")
	}
	c2, err := Dial(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	after, err := c2.Blocks(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range after {
		if b == nil {
			t.Fatalf("restarted edge missed block %q", names[i])
		}
		if b.ID != warm[i].ID || !bytes.Equal(b.Payload, warm[i].Payload) {
			t.Fatalf("block %q not byte-identical after crash-restart", names[i])
		}
	}
	blockRTs := e2.UpstreamRoundTrips()
	if blockRTs != 0 {
		t.Fatalf("restarted edge refetched blocks: %d upstream round trips, want 0", blockRTs)
	}

	// The document re-leases — a fresh upstream subscription, not a block
	// refetch.
	if _, err := c2.Document(ctx, "live", WithBinaryWire()); err != nil {
		t.Fatal(err)
	}
	if got := e2.Leases(); got != 1 {
		t.Fatalf("restarted edge holds %d leases after a read, want 1", got)
	}
	docRTs := e2.UpstreamRoundTrips() - blockRTs
	if docRTs == 0 || docRTs > 2 {
		t.Fatalf("re-lease cost %d upstream round trips, want 1–2 (subscription only)", docRTs)
	}
	if _, err := c2.Blocks(ctx, names); err != nil {
		t.Fatal(err)
	}
	if got := e2.UpstreamRoundTrips(); got != blockRTs+docRTs {
		t.Fatalf("post-restart reads refetched blocks: %d round trips, want %d", got, blockRTs+docRTs)
	}
}
