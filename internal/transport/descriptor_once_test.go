package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/media"
)

// TestBlockDescriptorEncodedOnce: a stored block's descriptor is encoded
// once, and that one text is what every place that carries it carries —
// getblks (several times), getdescs, a stream header, a journal record,
// a replication frame and a snapshot. After the first encoding the test
// swaps the block's Descriptor for one that encodes differently (a block
// is immutable once shared, so only a test may), so any path that
// encoded again would carry the swapped text.
func TestBlockDescriptorEncodedOnce(t *testing.T) {
	ctx := context.Background()
	payload := make([]byte, 4*media.ChunkThreshold) // chunked: it snapshots as a manifest
	rand.New(rand.NewSource(43)).Read(payload)
	blk := media.NewBlock("once.vid", core.MediumVideo, payload,
		attr.MustList(attr.P(media.DescTitle, attr.String("encoded once"))))

	dir := t.TempDir()
	log, st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	st.Store.SetJournal(log)
	st.Store.Put(blk) // journals the block: the first encoding
	want, err := blk.DescriptorText()
	if err != nil {
		t.Fatal(err)
	}
	const again = "encoded again"
	swapped := blk.Descriptor.Clone()
	swapped.Set(media.DescTitle, attr.String(again))
	blk.Descriptor = swapped

	check := func(path string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s carries descriptor %q, want the first encoding %q", path, got, want)
		}
	}
	fileHolding := func(suffix string) []byte {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no %s file in the data directory (%v)", suffix, err)
		}
		var all []byte
		for _, m := range matches {
			data, err := os.ReadFile(m)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return all
	}

	log.JournalPutBlock(blk)
	wal := fileHolding(".wal")
	if n := bytes.Count(wal, want); n != 2 {
		t.Errorf("the WAL holds the first encoding %d times, want 2 (the store's put and the direct journal call)", n)
	}
	frames, err := durable.FramePutBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.DecodeFrames(frames)
	if err != nil || len(recs) != 1 {
		t.Fatalf("FramePutBlock decodes as %d records (%v)", len(recs), err)
	}
	check("FramePutBlock", recs[0].Fields[3])
	if err := log.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if snap := fileHolding(".snap"); !bytes.Contains(snap, want) {
		t.Error("the snapshot lacks the first encoding")
	}

	addr, _ := startServer(t, NewRegistry(st.Store))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := [][]byte{[]byte(blk.Name)}
	// fetchOne fetches key under op and returns its one entry's fields.
	fetchOne := func(op byte, nFields int) [][]byte {
		t.Helper()
		var fields [][]byte
		err := c.fetchBatched(ctx, op, key, func(_ int, resp [][]byte) error {
			var flag byte
			var err error
			if fields, flag, err = decodeEntry(resp[0], nFields); err == nil && flag != entryFound {
				err = fmt.Errorf("%s entry flag %d", opNames[op], flag)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return fields
	}
	for i := 0; i < 3; i++ {
		check("getblks", fetchOne(opGetBlks, 4)[2])
	}
	check("getdescs", fetchOne(opGetDescs, 2)[1])
	streamed, err := c.getBlockStream(ctx, blk.Name)
	if err != nil {
		t.Fatal(err)
	}
	if title, _ := streamed.Descriptor.GetString(media.DescTitle); title != "encoded once" {
		t.Errorf("the stream header carries title %q, want the first encoding's", title)
	}

	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), again) {
			t.Errorf("%s holds a second encoding", e.Name())
		}
	}
}
