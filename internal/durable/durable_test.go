package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/units"
)

// testDoc builds a small two-leaf document.
func testDoc(t testing.TB, label string) *core.Document {
	t.Helper()
	root := core.NewPar().SetName("doc-" + label)
	root.Add(
		core.NewExt().SetName("clip").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String(label+".vid")),
		core.NewImm([]byte("caption "+label)).SetName("cap").
			SetAttr("channel", attr.ID("labels")),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)
	return d
}

// binaryOf is what a registry hands Log.PutDoc beside d: its encoding.
func binaryOf(d *core.Document) func() ([]byte, error) {
	return func() ([]byte, error) { return codec.EncodeBinary(d) }
}

// mustOpen opens a log with the journal attached to the returned state.
func mustOpen(t *testing.T, dir string, opts Options) (*Log, *State) {
	t.Helper()
	l, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	st.Store.SetJournal(l)
	return l, st
}

// liveState is what l holds, with each document decoded from the bytes
// the log keeps for it: the state a registry beside l serves.
func liveState(t *testing.T, l *Log) *State {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &State{Store: l.st.Store, Docs: make(map[string]*core.Document)}
	for name, cur := range l.st.docs {
		data, err := fold(name, cur.base, cur.tail)
		if err == nil {
			st.Docs[name], err = codec.DecodeBinary(data)
		}
		if err != nil {
			t.Fatalf("document %q: %v", name, err)
		}
	}
	return st
}

// populate drives every mutation kind through the journal: block puts,
// a name re-point, a delete and document puts.
func populate(t *testing.T, l *Log, st *State) {
	t.Helper()
	for i := 0; i < 8; i++ {
		st.Store.Put(media.CaptureText(fmt.Sprintf("story-%02d.txt", i),
			strings.Repeat("body ", 40)+fmt.Sprint(i), "en"))
	}
	st.Store.Put(media.CaptureImage("logo.img", 8, 8, 7))
	st.Store.Put(media.CaptureAudio("jingle.aud", 50, 8000, 440, 9))
	// Re-point a name at different content: recovery must resolve the
	// final pointer, not the first.
	st.Store.Put(media.CaptureText("story-00.txt", "rewritten", "en"))
	// Delete a block (and its name).
	victim := media.CaptureText("victim.txt", "doomed", "en")
	st.Store.Put(victim)
	st.Store.Delete(victim.ID)

	d := testDoc(t, "news")
	if err := l.PutDoc("news", binaryOf(d)); err != nil {
		t.Fatalf("PutDoc: %v", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("journal unhealthy after populate: %v", err)
	}
}

// checkEqual asserts two states hold the identical corpus: names, content
// addresses, payloads, descriptors and documents.
func checkEqual(t *testing.T, want, got *State) {
	t.Helper()
	if w, g := want.Store.Len(), got.Store.Len(); w != g {
		t.Fatalf("store size: want %d blocks, got %d", w, g)
	}
	wantNames, gotNames := want.Store.Names(), got.Store.Names()
	if fmt.Sprint(wantNames) != fmt.Sprint(gotNames) {
		t.Fatalf("names: want %v, got %v", wantNames, gotNames)
	}
	for _, name := range wantNames {
		wid, _ := want.Store.Resolve(name)
		gid, ok := got.Store.Resolve(name)
		if !ok || wid != gid {
			t.Fatalf("name %q: want id %.12s, got %.12s (ok=%v)", name, wid, gid, ok)
		}
	}
	want.Store.Each(func(b *media.Block) bool {
		g, ok := got.Store.Get(b.ID)
		if !ok {
			t.Fatalf("block %.12s (%s) missing after recovery", b.ID, b.Name)
		}
		if !bytes.Equal(g.Payload, b.Payload) {
			t.Fatalf("block %s payload differs after recovery", b.Name)
		}
		if g.Name != b.Name || g.Medium != b.Medium {
			t.Fatalf("block %s identity differs: %s/%s vs %s/%s",
				b.ID[:12], g.Name, g.Medium, b.Name, b.Medium)
		}
		if !g.Descriptor.Equal(b.Descriptor) {
			t.Fatalf("block %s descriptor differs: %v vs %v", b.Name, g.Descriptor, b.Descriptor)
		}
		return true
	})
	if err := got.Store.VerifyAll(); err != nil {
		t.Fatalf("recovered store fails verification: %v", err)
	}

	if w, g := len(want.Docs), len(got.Docs); w != g {
		t.Fatalf("documents: want %d, got %d", w, g)
	}
	for name, wd := range want.Docs {
		gd, ok := got.Docs[name]
		if !ok {
			t.Fatalf("document %q missing after recovery", name)
		}
		wb, err := codec.EncodeBinary(wd)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := codec.EncodeBinary(gd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("document %q differs after recovery", name)
		}
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	populate(t, l, st)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkEqual(t, liveState(t, l), got)
	if id, _ := got.Store.Resolve("story-00.txt"); id != media.CaptureText("story-00.txt", "rewritten", "en").ID {
		t.Fatal("re-pointed name resolves to stale content after recovery")
	}
}

func TestSnapshotReplayEqualsLive(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	populate(t, l, st)
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Mutations after the snapshot land in the WAL tail.
	st.Store.Put(media.CaptureText("late.txt", "after the snapshot", "en"))
	d := testDoc(t, "late")
	if err := l.PutDoc("late", binaryOf(d)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.snapSeqs) != 1 {
		t.Fatalf("want exactly one snapshot, got %v", listing.snapSeqs)
	}
	for _, seq := range listing.walSeqs {
		if seq <= listing.snapSeqs[0] {
			t.Fatalf("segment %d not compacted away by snapshot %d", seq, listing.snapSeqs[0])
		}
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkEqual(t, liveState(t, l), got)
}

func TestDoubleRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	populate(t, l, st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover, append nothing, close; recover again. Both recoveries and
	// the original live state must agree.
	l2, got1 := mustOpen(t, dir, Options{})
	checkEqual(t, liveState(t, l), got1)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, liveState(t, l), got2)
	checkEqual(t, got1, got2)
}

func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	populate(t, l, st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append one more block in a fresh session: its put record and its
	// name-registration record are the only contents of the newest
	// segment. Tearing any number of bytes off that segment must lose
	// the tail block's registration (and, for deeper tears, the block)
	// while everything before it recovers intact.
	l2, st2 := mustOpen(t, dir, Options{Sync: SyncNever})
	st2.Store.Put(media.CaptureText("tail.txt", strings.Repeat("tail ", 50), "en"))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	listing2, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, walName(listing2.walSeqs[len(listing2.walSeqs)-1]))
	withTail, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, 3, frameHeaderSize - 1, frameHeaderSize + 1, 40, int64(len(withTail)) - 1} {
		if int64(len(withTail)) <= cut {
			continue
		}
		if err := os.WriteFile(last, withTail[:int64(len(withTail))-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("Load after %d-byte tear: %v", cut, err)
		}
		if err := got.Store.VerifyAll(); err != nil {
			t.Fatalf("torn-tail recovery left corrupt blocks: %v", err)
		}
		if _, ok := got.Store.GetByName("tail.txt"); ok {
			t.Fatalf("tear of %d bytes kept the torn registration record", cut)
		}
		if n := got.Store.Len(); n != st.Store.Len() && n != st.Store.Len()+1 {
			t.Fatalf("tear of %d bytes lost more than the tail records: %d blocks, want %d or %d",
				cut, n, st.Store.Len(), st.Store.Len()+1)
		}
		for _, name := range st.Store.Names() {
			if _, ok := got.Store.Resolve(name); !ok {
				t.Fatalf("tear of %d bytes lost pre-tail name %q", cut, name)
			}
		}
	}

	// A writer reopening the directory repairs the tail and appends
	// cleanly after it.
	l3, st3 := mustOpen(t, dir, Options{Sync: SyncNever})
	st3.Store.Put(media.CaptureText("fresh.txt", "post-repair append", "en"))
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after repair+append: %v", err)
	}
	if _, ok := got.Store.GetByName("fresh.txt"); !ok {
		t.Fatal("append after tail repair did not survive")
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	populate(t, l, st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName(listing.walSeqs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Load(dir)
	if err == nil {
		t.Fatal("bit-flipped record recovered without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want errors.Is(err, ErrCorrupt), got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T: %v", err, err)
	}
	if ce.Path == "" || ce.Reason == "" {
		t.Fatalf("CorruptError not pinpointed: %+v", ce)
	}
	// A writer must refuse the directory too — recovering past silent
	// corruption would resurrect a wrong corpus.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt dir: want ErrCorrupt, got %v", err)
	}
}

func TestSegmentRollingAndSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, st := mustOpen(t, dir, Options{
				Sync:         policy,
				SyncEvery:    5 * time.Millisecond,
				SegmentBytes: 2 << 10, // force many rolls
			})
			for i := 0; i < 32; i++ {
				st.Store.Put(media.CaptureText(fmt.Sprintf("b-%03d.txt", i),
					strings.Repeat("x", 200)+fmt.Sprint(i), "en"))
			}
			listing, err := listDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(listing.walSeqs) < 3 {
				t.Fatalf("tiny segments did not roll: %v", listing.walSeqs)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkEqual(t, liveState(t, l), got)
		})
	}
}

func TestAutoSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{
		Sync:          SyncNever,
		SegmentBytes:  4 << 10,
		SnapshotBytes: 16 << 10,
	})
	for i := 0; i < 64; i++ {
		st.Store.Put(media.CaptureText(fmt.Sprintf("auto-%03d.txt", i),
			strings.Repeat("y", 400)+fmt.Sprint(i), "en"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l.Stats().Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-snapshot never fired past the threshold")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, liveState(t, l), got)
}

func TestDocDedupeAndStats(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	d := testDoc(t, "same")
	if err := l.PutDoc("d", binaryOf(d)); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	if before.Records != 1 {
		t.Fatalf("want 1 record, got %d", before.Records)
	}
	if err := l.PutDoc("d", binaryOf(d)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Records; got != before.Records {
		t.Fatalf("identical re-put appended a record (%d -> %d)", before.Records, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A second boot re-registering the same corpus appends nothing
	// either — the idempotent-seed property the server merge relies on.
	l2, st2 := mustOpen(t, dir, Options{Sync: SyncNever})
	if err := l2.PutDoc("d", binaryOf(d)); err != nil {
		t.Fatal(err)
	}
	st2.Store.Put(media.CaptureText("seed.txt", "seed", "en"))
	seeded := l2.Stats().Records
	st2.Store.Put(media.CaptureText("seed.txt", "seed", "en"))
	if got := l2.Stats().Records; got != seeded {
		t.Fatalf("idempotent block re-put appended a record (%d -> %d)", seeded, got)
	}

	// Write amplification is fixed by the record format, not the
	// machine: journaling 4 KiB blocks costs the payload plus framing,
	// id, name and descriptor — more than 1x, never more than 1.35x.
	var payloadBytes int64
	appended := l2.Stats().AppendedBytes
	for i := 0; i < 32; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 4<<10)
		st2.Store.Put(media.NewBlock(fmt.Sprintf("amp-%03d.bin", i), core.MediumText, payload, attr.List{}))
		payloadBytes += int64(len(payload))
	}
	amp := float64(l2.Stats().AppendedBytes-appended) / float64(payloadBytes)
	if amp <= 1.0 || amp > 1.35 {
		t.Fatalf("write amplification %.3f for 4 KiB blocks, want in (1.0, 1.35]", amp)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingDirAndClosedAppend(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Load of a missing directory succeeded")
	}
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	d := testDoc(t, "x")
	if err := l.PutDoc("x", binaryOf(d)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: want ErrClosed, got %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
