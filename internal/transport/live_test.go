package transport

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/units"
)

// liveServer serves the fixture document under "news" and returns the
// pieces the live-document tests drive.
func liveServer(t *testing.T, tune func(*Server)) (addr string, reg *Registry) {
	t.Helper()
	d, store := fixture(t)
	reg = NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, reg
}

// setDuration builds the single-record batch the tests edit with.
func setDuration(t *testing.T, path string, ms int64) []core.ChangeRecord {
	t.Helper()
	rec, err := edit.RecordSetAttr(path, "duration", attr.Quantity(units.MS(ms)))
	if err != nil {
		t.Fatal(err)
	}
	return []core.ChangeRecord{rec}
}

// TestSubscribeDeltaFlow walks the whole live-document lifecycle over
// the wire: the opening snapshot, an ordered delta per accepted edit, a
// fresh snapshot after a wholesale PutDoc, and a clean close that
// releases the server-side queue.
func TestSubscribeDeltaFlow(t *testing.T) {
	addr, reg := liveServer(t, nil)
	ctx := context.Background()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.SubscribeDoc(ctx, "news")
	if err != nil {
		t.Fatalf("SubscribeDoc: %v", err)
	}
	if sub.Gen != 0 || sub.Doc == nil || sub.Doc.Root.Name() != "news" {
		t.Fatalf("opening snapshot: gen=%d doc=%v", sub.Gen, sub.Doc)
	}
	if got := reg.SubscriberCount(); got != 1 {
		t.Fatalf("SubscriberCount = %d, want 1", got)
	}

	// Each accepted edit arrives as one delta, generations contiguous.
	gen := sub.Gen
	for i, ms := range []int64{150, 250} {
		want, err := c.SubmitEdit(ctx, "news", setDuration(t, "/intro", ms))
		if err != nil {
			t.Fatalf("SubmitEdit %d: %v", i, err)
		}
		ev, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if ev.Kind != SubDelta || ev.FromGen != gen || ev.Gen != want {
			t.Fatalf("delta %d = kind %d gens %d→%d, want delta %d→%d",
				i, ev.Kind, ev.FromGen, ev.Gen, gen, want)
		}
		if err := edit.Apply(sub.Doc, ev.Records); err != nil {
			t.Fatalf("apply delta %d: %v", i, err)
		}
		gen = ev.Gen
	}

	// The replica, having re-executed every record, is byte-identical to
	// the authoritative document.
	authoritative, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := codec.EncodeBinary(authoritative)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := codec.EncodeBinary(sub.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("replica diverged from the authoritative document after applying deltas")
	}

	// A wholesale replacement restarts the generation and pushes a full
	// snapshot.
	if err := c.PutDoc(ctx, "news", authoritative, EncodingBinary); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != SubSnapshot || ev.Gen != 0 || ev.Doc == nil {
		t.Fatalf("after PutDoc: kind %d gen %d, want snapshot at gen 0", ev.Kind, ev.Gen)
	}

	if err := sub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sub.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	waitFor(t, "subscriber release", func() bool { return reg.SubscriberCount() == 0 })
}

// TestHubShedSlowSubscriber pins the hub's overflow behaviour
// deterministically, below the wire: with a capacity-2 queue whose first
// slot holds the undrained opening snapshot, the first broadcast fills
// the queue and the second must shed the subscriber with the sub_slow
// reason — never block the hub, never drop silently.
func TestHubShedSlowSubscriber(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)

	sub, err := reg.Subscribe("news", "", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The queue already holds the seeded snapshot; the first edit's
	// broadcast fills the remaining slot, the second overflows.
	if _, err := reg.EditDoc("news", setDuration(t, "/intro", 100)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.stop:
		t.Fatalf("subscriber shed after a single overflow of a full queue? reason %q", sub.reason)
	default:
	}
	if _, err := reg.EditDoc("news", setDuration(t, "/intro", 200)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.stop:
		if sub.reason != shedSubSlow {
			t.Fatalf("shed reason = %q, want %q", sub.reason, shedSubSlow)
		}
	default:
		t.Fatal("queue overflowed but the subscriber was not shed")
	}
	sub.unsubscribe()
	sub.unsubscribe() // idempotent
	if got := reg.SubscriberCount(); got != 0 {
		t.Fatalf("SubscriberCount = %d after unsubscribe", got)
	}
}

// recordingJournal keeps what the registry journals: the encoding of
// each put and the bytes of each accepted batch. A non-nil fail refuses
// every edit batch.
type recordingJournal struct {
	puts  []string
	bins  [][]byte
	edits [][]byte
	fail  error
}

func (j *recordingJournal) PutDoc(name string, binary func() ([]byte, error)) error {
	data, err := binary()
	if err != nil {
		return err
	}
	j.puts, j.bins = append(j.puts, name), append(j.bins, data)
	return nil
}

func (j *recordingJournal) EditDoc(name string, enc []byte, binary func() ([]byte, error)) error {
	if j.fail != nil {
		return j.fail
	}
	j.edits = append(j.edits, enc)
	return nil
}

// TestRegistryJournalsTheBatch: an accepted batch is journaled as its
// change records, the very slice its subscribers receive; a batch the
// journal refuses changes nothing and reaches no subscriber.
func TestRegistryJournalsTheBatch(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	j := &recordingJournal{}
	reg.Journal = j
	reg.PutDoc("news", d)
	sub, err := reg.Subscribe("news", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.q // the opening snapshot

	recs := setDuration(t, "/intro", 100)
	gen, err := reg.EditDoc("news", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.puts) != 1 || len(j.edits) != 1 {
		t.Fatalf("journaled %d puts and %d edits, want 1 and 1", len(j.puts), len(j.edits))
	}
	if !bytes.Equal(j.edits[0], core.EncodeChangeRecords(recs)) {
		t.Fatal("journaled bytes are not the batch's change records")
	}
	ev := <-sub.q
	if &ev.recs[0] != &j.edits[0][0] {
		t.Fatal("the broadcast re-encoded the batch instead of sharing the journaled bytes")
	}
	served, _ := reg.GetDoc("news")
	want, err := codec.EncodeBinary(served.Doc())
	if err != nil {
		t.Fatal(err)
	}

	j.fail = errors.New("disk full")
	if _, err := reg.EditDoc("news", setDuration(t, "/intro", 200)); err == nil {
		t.Fatal("a batch the journal refused was accepted")
	}
	if g := reg.Generation("news"); g != gen {
		t.Fatalf("refused batch moved the generation %d -> %d", gen, g)
	}
	after, _ := reg.GetDoc("news")
	if data, _ := codec.EncodeBinary(after.Doc()); !bytes.Equal(data, want) {
		t.Fatal("refused batch changed the registered document")
	}
	select {
	case ev := <-sub.q:
		t.Fatalf("refused batch was broadcast: %+v", ev)
	default:
	}
}

// TestRefusedBatchOnAnUnreadTree: while no reader holds the registered
// tree, EditDoc edits it in place. A batch that conflicts at a later
// record, or that the journal refuses, is taken back there: the tree
// encodes as before, the generation stands, the journal records nothing,
// and no subscriber hears of it.
func TestRefusedBatchOnAnUnreadTree(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	j := &recordingJournal{}
	reg.Journal = j
	reg.PutDoc("news", d)
	// PutDoc shared d with its caller; the first edit copies it, and
	// nobody has read the copy.
	if _, err := reg.EditDoc("news", setDuration(t, "/intro", 100)); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("news", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.unsubscribe()
	<-sub.q // the opening snapshot
	registered := func() (*core.Document, uint64) {
		reg.mu.RLock()
		defer reg.mu.RUnlock()
		e := reg.docs["news"]
		return e.doc, e.gen
	}
	bin := func(d *core.Document) []byte {
		t.Helper()
		data, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	tree, gen := registered()
	want, journaled := bin(tree), len(j.edits)

	leaf := core.NewImm([]byte("late")).SetName("late").SetAttr("channel", attr.ID("labels"))
	insert, err := edit.RecordInsert("/", 1, leaf)
	if err != nil {
		t.Fatal(err)
	}
	valid := append(setDuration(t, "/voice", 300), insert,
		edit.RecordRename("/label", "caption"), edit.RecordMove("/intro", "/", 3))
	for _, tc := range []struct {
		name string
		recs []core.ChangeRecord
		fail error
	}{
		{"conflict at the last record", append(valid[:len(valid):len(valid)], edit.RecordDelete("/ghost")), nil},
		{"journal refusal", valid, errors.New("disk full")},
	} {
		j.fail = tc.fail
		if _, err := reg.EditDoc("news", tc.recs); err == nil {
			t.Fatalf("%s: the batch was accepted", tc.name)
		}
		got, g := registered()
		if got != tree {
			t.Fatalf("%s: the unread tree was copied, not edited in place", tc.name)
		}
		if !bytes.Equal(bin(got), want) || g != gen {
			t.Fatalf("%s: the refused batch changed the registered document (generation %d -> %d)", tc.name, gen, g)
		}
		if len(j.edits) != journaled {
			t.Fatalf("%s: the refused batch reached the journal", tc.name)
		}
		select {
		case ev := <-sub.q:
			t.Fatalf("%s: the refused batch was broadcast: %+v", tc.name, ev)
		default:
		}
	}

	// The document takes the batch once nothing refuses it.
	j.fail = nil
	next, err := reg.EditDoc("news", valid)
	if err != nil {
		t.Fatal(err)
	}
	if want := gen + uint64(len(valid)) + 1; next != want {
		t.Fatalf("a batch of %d records moved the generation %d -> %d, want %d", len(valid), gen, next, want)
	}
	if len(j.edits) != journaled+1 || !bytes.Equal(j.edits[journaled], core.EncodeChangeRecords(valid)) {
		t.Fatal("the accepted batch was not journaled as its change records")
	}
}

// TestHubGenerationAccounting pins the generation arithmetic: edit
// batches advance the authoritative generation cumulatively (clones
// reset their change logs, the hub must not), and a wholesale PutDoc
// restarts it at zero.
func TestHubGenerationAccounting(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)

	g1, err := reg.EditDoc("news", setDuration(t, "/intro", 100))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := reg.EditDoc("news", setDuration(t, "/voice", 200))
	if err != nil {
		t.Fatal(err)
	}
	if g1 == 0 || g2 <= g1 {
		t.Fatalf("generations not cumulative: %d then %d", g1, g2)
	}
	if got := reg.Generation("news"); got != g2 {
		t.Fatalf("Generation = %d, want %d", got, g2)
	}
	reg.PutDoc("news", d.Clone())
	if got := reg.Generation("news"); got != 0 {
		t.Fatalf("Generation after PutDoc = %d, want 0", got)
	}
}

// TestSubmitEditConflict drives the multi-writer conflict path over the
// wire: two writers race to delete the same node; the loser's batch must
// be rejected typed and atomic — ErrConflict, nothing applied, and the
// connection healthy for the refetch the writer recovers with.
func TestSubmitEditConflict(t *testing.T) {
	addr, _ := liveServer(t, nil)
	ctx := context.Background()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	del := []core.ChangeRecord{edit.RecordDelete("/label")}
	if _, err := c.SubmitEdit(ctx, "news", del); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	_, err = c.SubmitEdit(ctx, "news", del)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second delete = %v, want ErrConflict", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("conflict %v does not match ErrRemote", err)
	}

	// A batch that fails mid-way must leave no partial application: the
	// valid first record's effect may not survive the invalid second.
	rec, err := edit.RecordSetAttr("/intro", "duration", attr.Quantity(units.MS(123)))
	if err != nil {
		t.Fatal(err)
	}
	mixed := []core.ChangeRecord{rec, edit.RecordDelete("/label")}
	if _, err := c.SubmitEdit(ctx, "news", mixed); !errors.Is(err, ErrConflict) {
		t.Fatalf("mixed batch = %v, want ErrConflict", err)
	}
	doc, err := c.GetDoc(ctx, "news", GetDocOptions{Encoding: EncodingBinary})
	if err != nil {
		t.Fatalf("refetch after conflict: %v", err)
	}
	intro := doc.Root.FindByName("intro")
	if v, ok := intro.Attrs.Get("duration"); ok {
		t.Fatalf("rejected batch partially applied: duration = %v", v)
	}
	if doc.Root.FindByName("label") != nil {
		t.Error("deleted node still present after refetch")
	}
}

// TestSubscriberTeardownLeakFree churns 64 subscriptions through the
// three teardown paths — clean Close, abrupt connection death, and
// server-side shedding of watchers that stop reading — and requires the
// server to come back to its baseline: zero registered subscribers, no
// leaked goroutines, and every admission slot released (a fresh wave up
// to the server-wide bound must succeed).
func TestSubscriberTeardownLeakFree(t *testing.T) {
	const total = 64
	addr, reg := liveServer(t, func(s *Server) {
		s.SubQueueCap = 1
		s.Admission = Admission{MaxSubscribers: total}
	})
	ctx := context.Background()
	baseline := runtime.NumGoroutine()

	// --- wave 1: a third closes cleanly, a third dies abruptly ---------
	var clients []*Client
	var subs []*DocSubscription
	for i := 0; i < total*2/3; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		sub, err := c.SubscribeDoc(ctx, "news")
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	// Deltas in flight while the teardown happens.
	batches := make([][]core.ChangeRecord, 16)
	for i := range batches {
		batches[i] = setDuration(t, "/intro", int64(100+i))
	}
	var editWG sync.WaitGroup
	editWG.Add(1)
	go func() {
		defer editWG.Done()
		for _, b := range batches {
			if _, err := reg.EditDoc("news", b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, sub := range subs {
		if i%2 == 0 {
			_ = sub.Close() // clean unsubscribe
		} else {
			_ = clients[i].Close() // abrupt: the conn dies mid-stream
		}
	}
	editWG.Wait()
	for _, c := range clients {
		_ = c.Close()
	}

	// --- wave 2: the rest are shed for not reading --------------------
	shedClients := make([]*Client, total/3)
	for i := range shedClients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		shedClients[i] = c
		if _, err := c.SubscribeDoc(ctx, "news"); err != nil {
			t.Fatalf("shed-wave subscribe %d: %v", i, err)
		}
	}
	// Nobody Recvs: client buffers and socket buffers fill, pumps stall,
	// the capacity-1 server queues overflow, and the hub sheds. Fat
	// records fill those buffers in few edits instead of thousands.
	fatRec, err := edit.RecordSetAttr("/label", "note", attr.String(string(make([]byte, 1<<16))))
	if err != nil {
		t.Fatal(err)
	}
	fat := []core.ChangeRecord{fatRec}
	shedDeadline := time.Now().Add(10 * time.Second)
	for reg.SubscriberCount() > 0 {
		if time.Now().After(shedDeadline) {
			t.Fatalf("non-reading watchers not shed; %d still registered", reg.SubscriberCount())
		}
		if _, err := reg.EditDoc("news", fat); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range shedClients {
		_ = c.Close()
	}

	// --- baseline restored ---------------------------------------------
	waitFor(t, "subscriber registry drained", func() bool { return reg.SubscriberCount() == 0 })
	waitFor(t, "goroutines released", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})

	// Every admission slot must be free again: a full wave at the bound.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wave []*DocSubscription
	for i := 0; i < total; i++ {
		sub, err := c.SubscribeDoc(ctx, "news")
		if err != nil {
			t.Fatalf("post-churn subscribe %d: %v (admission slots leaked?)", i, err)
		}
		wave = append(wave, sub)
	}
	if _, err := c.SubscribeDoc(ctx, "news"); !errors.Is(err, ErrBusy) {
		t.Fatalf("subscribe past the bound = %v, want ErrBusy", err)
	}
	for _, sub := range wave {
		_ = sub.Close()
	}
	waitFor(t, "final release", func() bool { return reg.SubscriberCount() == 0 })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubscriptionOpensWithItsSnapshot: a subscription ended before its
// pump sent anything — a DropDoc racing the subscribe — still opens with
// its snapshot, then ends; a client never meets a subscription whose
// first frame is its end.
func TestSubscriptionOpensWithItsSnapshot(t *testing.T) {
	d, store := fixture(t)
	reg := NewRegistry(store)
	reg.PutDoc("news", d)
	srv := NewServer(reg)
	for i := 0; i < 50; i++ {
		sub, err := reg.Subscribe("news", "", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sub.end("dropped")
		cc := &v2conn{respCh: make(chan frameV2, 2), done: make(chan struct{})}
		cc.wg.Add(1)
		srv.pumpSub(cc, 1, sub, nil)
		if f := <-cc.respCh; f.parts[0][0] != changeSnapshot {
			t.Fatalf("run %d: the subscription opened with %q, not its snapshot", i, f.parts[0])
		}
		if f := <-cc.respCh; f.parts[0][0] != changeEnd {
			t.Fatalf("run %d: the snapshot was not followed by the end", i)
		}
	}
}
