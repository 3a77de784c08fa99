package cmif_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmif"
)

// The server-level crash harness: the child process is a durable cmifd
// stand-in (cmif.Serve with WithDataDir and SyncAlways); the parent
// ingests blocks over the real wire protocol, records which puts the
// server acknowledged, SIGKILLs it mid-ingest, and verifies the data
// directory recovers every acknowledged block — the ISSUE's acceptance
// scenario end to end.

const crashServeEnvVar = "CMIF_CRASH_SERVER_DIR"

// TestCrashChildServe is the child body, not a real test: a durable
// server that prints its bound address and serves until killed.
func TestCrashChildServe(t *testing.T) {
	dir := os.Getenv(crashServeEnvVar)
	if dir == "" {
		t.Skip("crash-harness child body; driven by TestCrashRecoveryServer")
	}
	err := cmif.Serve(context.Background(), "127.0.0.1:0",
		func(bound string, s *cmif.Server) {
			fmt.Printf("ADDR %s\n", bound)
		},
		cmif.WithDataDir(dir),
		cmif.WithSyncPolicy(cmif.SyncAlways),
	)
	if err != nil {
		t.Fatalf("child serve: %v", err)
	}
}

// startCrashChild starts the durable child server on dir and returns it
// with the address it reported; the caller kills it.
func startCrashChild(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChildServe$", "-test.v")
	cmd.Env = append(os.Environ(), crashServeEnvVar+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The child prints "ADDR host:port" once listening.
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			return cmd, rest
		}
	}
	t.Fatalf("child never reported its address")
	return nil, ""
}

func TestCrashRecoveryServer(t *testing.T) {
	if os.Getenv(crashServeEnvVar) != "" {
		t.Skip("running inside the crash child")
	}
	dir := t.TempDir()
	cmd, addr := startCrashChild(t, dir)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ingest until enough puts are acknowledged, then kill mid-stream.
	// Every acknowledged put carries a durability promise: the server
	// fsynced it (SyncAlways) before answering.
	acked := make(map[string]string)
	for i := 0; len(acked) < 40; i++ {
		b := cmif.CaptureText(fmt.Sprintf("wire-crash-%04d.txt", i),
			strings.Repeat("over the wire ", 16)+fmt.Sprint(i), "en")
		id, err := c.PutBlock(ctx, b)
		if err != nil {
			t.Fatalf("put %d failed: %v", i, err)
		}
		acked[b.Name] = id
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	store, _, err := cmif.LoadDataDir(dir)
	if err != nil {
		t.Fatalf("recovery after SIGKILL failed: %v", err)
	}
	for name, id := range acked {
		got, ok := store.Resolve(name)
		if !ok {
			t.Fatalf("acknowledged block %q lost by the crash", name)
		}
		if got != id {
			t.Fatalf("block %q recovered with wrong content: %.12s != %.12s", name, got, id)
		}
	}
	if err := store.VerifyAll(); err != nil {
		t.Fatalf("recovered store fails verification: %v", err)
	}

	// Restart the server on the same directory: the corpus must be
	// served again, exactly — the "killed daemon recovers on restart"
	// acceptance criterion.
	srv := cmif.NewServer(cmif.WithDataDir(dir))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart on recovered dir: %v", err)
	}
	defer srv.Close()
	c2, err := cmif.Dial(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for name, id := range acked {
		blk, err := c2.Block(ctx, name)
		if err != nil {
			t.Fatalf("restarted server cannot serve %q: %v", name, err)
		}
		if blk.ID != id {
			t.Fatalf("restarted server serves wrong content for %q", name)
		}
	}
}

// crashEditBatch is the i-th batch of the edit crash test: a rotation of
// a set-attr, an insert of a uniquely named leaf, and the delete of the
// leaf the previous batch inserted.
func crashEditBatch(i int) *cmif.EditBatch {
	b := cmif.NewEditBatch()
	switch i % 3 {
	case 0:
		b.SetAttr("/caption", "duration", cmif.Qty(cmif.MS(int64(100+i))))
	case 1:
		b.Insert("/pictures", -1, cmif.NewExt().SetName(fmt.Sprintf("ins-%d", i)).
			SetAttr("file", cmif.String("intro.img")).
			SetAttr("duration", cmif.Qty(cmif.MS(500))))
	default:
		b.Delete(fmt.Sprintf("/pictures/ins-%d", i-1))
	}
	return b
}

// TestCrashRecoveryServerEdits: edits the server acknowledged survive a
// SIGKILL. A writer submits a set-attr / insert / delete mix and mirrors
// every acknowledged batch; after the kill the recovered document must
// equal the mirror at the last acknowledgement, or that mirror plus the
// one batch in flight when the server died.
func TestCrashRecoveryServerEdits(t *testing.T) {
	if os.Getenv(crashServeEnvVar) != "" {
		t.Skip("running inside the crash child")
	}
	dir := t.TempDir()
	cmd, addr := startCrashChild(t, dir)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "live", buildDoc(t)); err != nil {
		t.Fatal(err)
	}
	// Mirror what the server registered, not what was sent.
	mirror, err := c.Document(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(d *cmif.Document) []byte {
		data, err := cmif.Encode(d, cmif.WithFormat(cmif.FormatBinary))
		if err != nil {
			t.Error(err)
		}
		return data
	}

	var (
		mu       sync.Mutex
		acked    = encode(mirror) // the mirror at the last acknowledgement
		inflight []byte           // the mirror with the batch awaiting its ack
		acks     int
		done     = make(chan error, 1)
	)
	go func() {
		for i := 0; ; i++ {
			b := crashEditBatch(i)
			next := mirror.Clone()
			if err := b.Apply(next); err != nil {
				done <- fmt.Errorf("batch %d does not apply to the mirror: %w", i, err)
				return
			}
			mu.Lock()
			inflight = encode(next)
			mu.Unlock()
			if _, err := c.SubmitEdit(ctx, "live", b); err != nil {
				done <- err // the kill, or a failure the main goroutine reports
				return
			}
			mirror = next
			mu.Lock()
			acked, inflight = inflight, nil
			acks++
			mu.Unlock()
		}
	}()

	for {
		mu.Lock()
		n := acks
		mu.Unlock()
		if n >= 60 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("writer stopped after %d acknowledged batches: %v", n, err)
		case <-time.After(time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	<-done

	_, docs, err := cmif.LoadDataDir(dir)
	if err != nil {
		t.Fatalf("recovery after SIGKILL failed: %v", err)
	}
	d, ok := docs["live"]
	if !ok {
		t.Fatal("the edited document was lost by the crash")
	}
	got := encode(d)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, acked) && (inflight == nil || !bytes.Equal(got, inflight)) {
		t.Fatalf("recovered document matches neither the last acknowledged state (%d batches) nor that plus the batch in flight", acks)
	}
}
