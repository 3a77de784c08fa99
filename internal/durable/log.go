package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunker"
	"repro/internal/fsio"
	"repro/internal/media"
	"repro/internal/metrics"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("durable: log closed")

// Options configures Open.
type Options struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval tick (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes rolls the active segment past this size
	// (default 8 MiB). Rolls always fsync, so SyncNever's exposure is
	// bounded by one segment.
	SegmentBytes int64
	// SnapshotBytes triggers a background snapshot (and compaction) once
	// the un-snapshotted WAL grows past it. Default 64 MiB; negative
	// disables automatic snapshots.
	SnapshotBytes int64
}

func (o *Options) fillDefaults() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 64 << 20
	}
}

// Stats summarizes a log's activity since Open.
type Stats struct {
	// Records and AppendedBytes count WAL appends by this process.
	Records       int64
	AppendedBytes int64
	// WALBytes is the live WAL not yet covered by a snapshot.
	WALBytes int64
	// ActiveSegment is the sequence number of the segment being
	// appended to.
	ActiveSegment uint64
	// Snapshots counts snapshots taken; LastSnapshotBytes sizes the
	// most recent one.
	Snapshots         int64
	LastSnapshotBytes int64
}

// Log is the durability layer: an append-only WAL plus snapshots over one
// data directory. It implements media.Store's mutation journal, so
// attaching it to the recovered store makes every subsequent block and
// name mutation durable; documents journal through PutDoc and EditDoc.
// One process may hold a directory's log at a time; Open does not lock,
// it trusts the deployment.
//
// Append errors are sticky: after the first IO failure every further
// append fails and Err reports it, so a server can refuse to acknowledge
// mutations it could not make durable instead of silently dropping them.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seq      uint64 // active segment sequence
	segBytes int64  // bytes in the active segment
	walBytes int64  // live WAL bytes not covered by a snapshot
	snapDebt int64  // auto-snapshot backoff: walBytes level of the last failure
	dirty    bool   // appended since the last fsync
	err      error  // sticky first append failure
	closed   bool

	// st is the live state, snapshotted on demand: the store and, under
	// mu, each document's bytes. It holds no decoded document.
	st *State

	snapshotting atomic.Bool
	snapErr      error // last background-snapshot failure
	// tailPuts holds, from a snapshot's roll until its walk is done, the
	// ids appended as recPutBlk since the roll: the tail has them, so the
	// walk skips them. afterRoll, set by tests, runs right after the roll.
	tailPuts  map[string]bool
	afterRoll func()
	bgWG      sync.WaitGroup // background snapshots and folds
	// cuts is touched only by the in-flight snapshot; snapshotting
	// admits one at a time.
	cuts cutMemo

	stopSync  chan struct{}
	syncDone  chan struct{}
	closeOnce sync.Once
	closeErr  error

	records   atomic.Int64
	appended  atomic.Int64
	snapshots atomic.Int64
	snapBytes atomic.Int64

	// Mirrored instruments (Instrument); nil when uninstrumented. They
	// move together with the Stats counters above.
	mAppendSec *metrics.Histogram
	mAppends   *metrics.Counter
	mWALBytes  *metrics.Gauge
	mSnapshots *metrics.Counter
	mSnapBytes *metrics.Gauge
}

// Open recovers dir (creating it if needed) and returns the log plus the
// recovered state. The caller wires the state into its server and then
// attaches the log as the store's journal; mutations made before
// attaching are not captured. The returned Docs are the caller's: the
// log keeps the store and the bytes that rebuild each document, no tree.
// A torn final record — the residue of a crash mid-append — is truncated
// away; corrupt records fail recovery with an error matching ErrCorrupt.
func Open(dir string, opts Options) (*Log, *State, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	st, walBytes, maxSeq, err := recoverDir(dir, true)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		seq:      maxSeq, // rollLocked moves to maxSeq+1
		walBytes: walBytes,
		st:       &State{Store: st.Store, docs: st.docs},
	}
	st.docs = nil
	l.mu.Lock()
	err = l.rollLocked()
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	// Finish any compaction a previous process started but did not
	// complete, and clear abandoned snapshot temp files.
	l.removeCovered()
	if opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, st, nil
}

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// Err reports the sticky append failure, nil while the log is healthy.
// Servers consult it before acknowledging a mutation.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats reports activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	walBytes, seq := l.walBytes, l.seq
	l.mu.Unlock()
	return Stats{
		Records:           l.records.Load(),
		AppendedBytes:     l.appended.Load(),
		WALBytes:          walBytes,
		ActiveSegment:     seq,
		Snapshots:         l.snapshots.Load(),
		LastSnapshotBytes: l.snapBytes.Load(),
	}
}

// fail records the first append error; later appends return it.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// rollLocked fsyncs and closes the active segment (if any) and opens the
// next one. Rolling always syncs, so even SyncNever bounds its exposure
// to one segment.
func (l *Log) rollLocked() error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	l.seq++
	path := filepath.Join(l.dir, walName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := fsio.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 64<<10)
	l.segBytes = 0
	return nil
}

// syncLocked flushes buffered records and fsyncs the active segment.
func (l *Log) syncLocked() error {
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			return err
		}
	}
	if l.dirty && l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.dirty = false
	}
	return nil
}

// Sync forces buffered records to stable storage under any policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.syncLocked(); err != nil {
		l.fail(err)
		return err
	}
	return nil
}

// appendLocked frames and writes one record under l.mu, honouring the
// sync policy, and starts a background snapshot once the auto-snapshot
// threshold trips.
func (l *Log) appendLocked(op byte, fields ...[]byte) (err error) {
	if l.mAppendSec != nil {
		start := time.Now()
		defer func() {
			if err == nil {
				// Append lag: framing, the write syscall, and whatever
				// fsync the policy demanded — the full delay a mutation
				// waits before it may be acknowledged.
				l.mAppendSec.Observe(time.Since(start))
				l.mAppends.Inc()
				l.mWALBytes.Set(l.walBytes)
			}
		}()
	}
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	frame := encodeFrame(op, fields...)
	if len(frame)-frameHeaderSize > maxRecordBytes {
		// A record past the replayer's size bound must never reach the
		// log: it would be journaled and acknowledged now, then rejected
		// as corrupt on every future boot — bricking the directory.
		// Sticky, like any other append failure: the server stops
		// acknowledging rather than diverge from the log.
		err := fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit",
			len(frame)-frameHeaderSize, maxRecordBytes)
		l.fail(err)
		return err
	}
	if l.segBytes > 0 && l.segBytes+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			l.fail(err)
			return err
		}
	}
	if _, err := l.bw.Write(frame); err != nil {
		l.fail(err)
		return err
	}
	l.dirty = true
	l.segBytes += int64(len(frame))
	l.walBytes += int64(len(frame))
	l.records.Add(1)
	l.appended.Add(int64(len(frame)))
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.fail(err)
			return err
		}
	} else {
		// The record must reach the kernel before the mutation is
		// acknowledged: a plain write syscall (no fsync) is what makes
		// SIGKILL lossless under every policy — only a machine crash
		// can take what the interval/never policies have not yet
		// fsynced.
		if err := l.bw.Flush(); err != nil {
			l.fail(err)
			return err
		}
	}
	if op == recPutBlk && l.tailPuts != nil {
		l.tailPuts[string(fields[0])] = true
	}
	if l.opts.SnapshotBytes > 0 && l.walBytes-l.snapDebt >= l.opts.SnapshotBytes {
		l.snapshotAsyncLocked()
	}
	return nil
}

// append is the one-shot wrapper around appendLocked for callers that
// hold no log state of their own.
func (l *Log) append(op byte, fields ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(op, fields...)
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.dirty {
				if err := l.syncLocked(); err != nil {
					l.fail(err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs and closes the log. Safe to call more than once;
// it reports the first failure among the sticky append error, the final
// flush, and any background snapshot failure.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		// Mark closed first: background snapshots and folds are added
		// under l.mu with the log found open, so no Add can race the
		// Wait below, and an in-flight snapshot or fold finishes (and
		// records its error) before closeErr is computed.
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		if l.stopSync != nil {
			close(l.stopSync)
			<-l.syncDone
		}
		l.bgWG.Wait()
		l.mu.Lock()
		ferr := l.syncLocked()
		var cerr error
		if l.f != nil {
			cerr = l.f.Close()
			l.f = nil
		}
		for _, err := range []error{l.err, ferr, cerr, l.snapErr} {
			if err != nil {
				l.closeErr = err
				break
			}
		}
		l.mu.Unlock()
	})
	return l.closeErr
}

// --- mutation journal -------------------------------------------------

// JournalPutBlock records a block put (media.Journal). Failures are
// sticky: the block is in memory but the server must stop acknowledging.
// The register flag in the record is always 0: name registrations
// journal as their own recName records (see media.Journal).
func (l *Log) JournalPutBlock(b *media.Block) {
	desc, err := b.DescriptorText()
	if err != nil {
		l.mu.Lock()
		l.fail(fmt.Errorf("durable: block %q descriptor: %w", b.Name, err))
		l.mu.Unlock()
		return
	}
	_ = l.append(recPutBlk,
		[]byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{0})
}

// JournalDeleteBlock records a block delete (media.Journal).
func (l *Log) JournalDeleteBlock(id string) {
	_ = l.append(recDelBlk, []byte(id))
}

// JournalRegisterName records a name registration (media.Journal).
func (l *Log) JournalRegisterName(name, id string) {
	_ = l.append(recName, []byte(name), []byte(id))
}

// PutDoc records a document registration (transport.Journal), deduping a
// re-put of the bytes the log holds for an unedited document (a preloaded
// corpus re-registered on every boot appends nothing). binary returns the
// document's encoding; the log keeps that slice as the document's base,
// on a dedupe too, so the registry's encoding is held once. The caller
// must not mutate it afterwards.
func (l *Log) PutDoc(name string, binary func() ([]byte, error)) error {
	data, err := binary()
	if err != nil {
		// Sticky: the document is registered in memory but cannot reach
		// the log, so the server must stop acknowledging.
		l.mu.Lock()
		l.fail(fmt.Errorf("durable: document %q: %w", name, err))
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur := l.st.docs[name]; cur != nil && len(cur.tail) == 0 && bytes.Equal(cur.base, data) {
		cur.base = data
		return nil
	}
	if err := l.appendLocked(recPutDoc, []byte(name), data); err != nil {
		return err
	}
	l.st.docs[name] = &docJournal{base: data}
	return nil
}

// EditDoc records an edit batch the registry accepted (transport.Journal):
// enc is its core.EncodeChangeRecords form, which the log appends and
// keeps in the document's tail. The registry has checked the batch
// against its document; the log applies nothing until a snapshot or a
// resync folds the tail, or until the tail outweighs its base: then a
// background fold keeps the log's bytes near the document's size. A name
// the log holds no base for journals binary's encoding whole instead, so
// replay never meets an edit without its base.
func (l *Log) EditDoc(name string, enc []byte, binary func() ([]byte, error)) error {
	l.mu.Lock()
	cur := l.st.docs[name]
	if cur == nil {
		l.mu.Unlock()
		return l.PutDoc(name, binary)
	}
	defer l.mu.Unlock()
	if err := l.appendLocked(recEditDoc, []byte(name), enc); err != nil {
		return err
	}
	cur.tail, cur.tailBytes = append(cur.tail, enc), cur.tailBytes+len(enc)
	if !cur.folding && cur.tailBytes > len(cur.base) {
		cur.folding = true
		l.bgWG.Add(1) // the log is open in this hold: ordered before Close's Wait
		go l.foldTail(name)
	}
	return nil
}

// foldTail folds name's tail in the background until it no longer
// outweighs its base.
func (l *Log) foldTail(name string) {
	defer l.bgWG.Done()
	for {
		l.mu.Lock()
		cur := l.st.docs[name]
		if cur.tailBytes <= len(cur.base) {
			cur.folding = false
			l.mu.Unlock()
			return
		}
		at := *cur
		l.mu.Unlock()
		if _, err := l.folded(name, cur, at); err != nil {
			return
		}
	}
}

// folded returns the encoding of name's document, given cur, its bytes
// as the caller found them under l.mu, and at, a copy of *cur taken in
// the same hold. A non-empty tail folds outside the lock; the result then
// becomes name's base, with the batches appended since as its tail,
// unless a put or another fold replaced cur meanwhile. A failed fold is
// sticky: the log can no longer write the document.
func (l *Log) folded(name string, cur *docJournal, at docJournal) ([]byte, error) {
	if len(at.tail) == 0 {
		return at.base, nil
	}
	data, err := fold(name, at.base, at.tail)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("durable: folding document %q: %w", name, err)
		l.fail(err)
		return nil, err
	}
	if l.st.docs[name] == cur {
		l.st.docs[name] = &docJournal{base: data, tail: slices.Clone(cur.tail[len(at.tail):]),
			tailBytes: cur.tailBytes - at.tailBytes, folding: cur.folding}
	}
	return data, nil
}

// --- snapshots and compaction ----------------------------------------

// Snapshot writes the live state to a new snapshot file and compacts the
// WAL segments it covers. Concurrent with appends: each document's base
// and tail are captured in the l.mu hold that rolls the segment, so a
// recEditDoc — which is not idempotent — lands in the snapshot or in the
// tail, never both, and every document is folded and written whole.
// Blocks and names are read after the lock is released, less the blocks
// put since the roll, which the tail holds; any other mutation racing the
// read may land in both, harmless as its record states a full value. If a
// snapshot is already in flight, Snapshot returns nil without another.
func (l *Log) Snapshot() error {
	if !l.snapshotting.CompareAndSwap(false, true) {
		return nil
	}
	defer l.snapshotting.Store(false)
	return l.snapshot()
}

// snapshotAsyncLocked runs Snapshot on a background goroutine, keeping
// the append path fast; failures park in snapErr (surfaced on Close) and
// back the auto-trigger off by one threshold so a sick disk is not
// hammered with a snapshot attempt per append. The caller holds l.mu and
// has found the log open, so the Add precedes Close's Wait.
func (l *Log) snapshotAsyncLocked() {
	if !l.snapshotting.CompareAndSwap(false, true) {
		return
	}
	l.bgWG.Add(1)
	go func() {
		defer l.bgWG.Done()
		defer l.snapshotting.Store(false)
		// A snapshot overtaken by Close is not a failure worth
		// surfacing — the WAL it would have compacted is intact.
		if err := l.snapshot(); err != nil && err != ErrClosed {
			l.mu.Lock()
			l.snapErr = err
			l.snapDebt = l.walBytes
			l.mu.Unlock()
		}
	}()
}

func (l *Log) snapshot() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		l.fail(err)
		l.mu.Unlock()
		return err
	}
	cover := l.seq
	if err := l.rollLocked(); err != nil {
		l.fail(err)
		l.mu.Unlock()
		return err
	}
	// Everything in segments ≤ cover is what the snapshot will absorb;
	// the counter is settled only once the snapshot lands, so a failed
	// write leaves the live-WAL accounting (and the auto-trigger) intact.
	covered := l.walBytes
	curs := maps.Clone(l.st.docs)
	caps := make(map[string]docJournal, len(curs))
	for name, cur := range curs {
		caps[name] = *cur
	}
	l.tailPuts = make(map[string]bool)
	l.mu.Unlock()
	defer func() { l.mu.Lock(); l.tailPuts = nil; l.mu.Unlock() }()
	if l.afterRoll != nil {
		l.afterRoll()
	}

	docs := make(map[string][]byte, len(caps))
	for name, at := range caps {
		data, err := l.folded(name, curs[name], at)
		if err != nil {
			return err
		}
		docs[name] = data
	}
	l.cuts.forget(l.st.Store)
	size, err := l.writeSnapshot(cover, docs)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.walBytes -= covered
	l.snapDebt = 0
	// A landed snapshot supersedes any earlier failure: the WAL it
	// could not compact then is compacted now, so Close must not keep
	// reporting the stale error.
	l.snapErr = nil
	if l.mWALBytes != nil {
		l.mWALBytes.Set(l.walBytes)
	}
	l.mu.Unlock()
	l.snapshots.Add(1)
	l.snapBytes.Store(size)
	if l.mSnapshots != nil {
		l.mSnapshots.Inc()
		l.mSnapBytes.Set(size)
	}
	l.removeCovered()
	return nil
}

// cutMemo remembers how each chunked block was cut, across snapshots, so
// a block is hashed on its first snapshot and never again: per block id
// the hash and length of every chunk (the block's own memo, shared:
// media.Block.Cuts; no payload references), and per chunk hash how many
// remembered blocks hold it.
type cutMemo struct {
	byID map[string][]chunker.Cut
	refs map[ChunkHash]int
	// saved is cmif_bytes_saved_total{reason="dedupe"} (Instrument);
	// nil when uninstrumented.
	saved *metrics.Counter
}

// forget drops the cuts of blocks s no longer holds, with their chunk
// references, so a later first cut counts as shared only the chunks of
// blocks still stored.
func (m *cutMemo) forget(s *media.Store) {
	for id, cuts := range m.byID {
		if _, ok := s.Get(id); ok {
			continue
		}
		delete(m.byID, id)
		for _, c := range cuts {
			if m.refs[c.Hash]--; m.refs[c.Hash] == 0 {
				delete(m.refs, c.Hash)
			}
		}
	}
}

// of returns b's cuts, cutting b if no earlier snapshot or reader did. A
// first cut adds to the dedupe counter the bytes that land on chunks a
// remembered block — or an earlier chunk of b itself — already holds.
func (m *cutMemo) of(b *media.Block) []chunker.Cut {
	if cuts, ok := m.byID[b.ID]; ok {
		return cuts
	}
	if m.byID == nil {
		m.byID = make(map[string][]chunker.Cut)
		m.refs = make(map[ChunkHash]int)
	}
	cuts := b.Cuts()
	var shared int64
	for _, c := range cuts {
		if m.refs[c.Hash] > 0 {
			shared += int64(c.Len)
		}
		m.refs[c.Hash]++
	}
	m.byID[b.ID] = cuts
	if shared > 0 && m.saved != nil {
		m.saved.Add(shared)
	}
	return cuts
}

// writeSnapshot serializes docs (name → encoding) and the store, less the
// blocks the tail puts, into snap-<seq>.snap via a temp file and an
// atomic rename.
func (l *Log) writeSnapshot(seq uint64, docs map[string][]byte) (int64, error) {
	final := filepath.Join(l.dir, snapName(seq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var size int64
	write := func(op byte, fields ...[]byte) { size += int64(writeFrame(bw, op, fields...)) }
	for _, name := range slices.Sorted(maps.Keys(docs)) {
		write(recPutDoc, []byte(name), docs[name])
	}
	// Blocks go in detached (no name registration): they iterate in
	// arbitrary order, while the registry's name→id pointers depend on
	// mutation order. The recName records that follow rebuild the
	// registry exactly.
	//
	// Blocks at or above the chunk threshold snapshot as manifests: each
	// unique chunk is written once (recChunk, first-containing-block
	// order), its bytes taken from that block's payload, and the block
	// itself as a recPutBlkC referencing the hashes, so a dup-heavy corpus
	// snapshots near its unique size. The memo cuts a block on its first
	// snapshot — here, on the snapshot goroutine, outside l.mu. Smaller
	// blocks stay recPutBlk.
	var werr error
	chunksWritten := make(map[ChunkHash]bool)
	l.st.Store.Each(func(b *media.Block) bool {
		l.mu.Lock()
		inTail := l.tailPuts[b.ID]
		l.mu.Unlock()
		if inTail {
			return true
		}
		desc, err := b.DescriptorText()
		if err != nil {
			werr = fmt.Errorf("block %q descriptor: %w", b.Name, err)
			return false
		}
		if len(b.Payload) < media.ChunkThreshold {
			write(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{0})
			return true
		}
		cuts := l.cuts.of(b)
		manifest := make([]byte, 0, len(cuts)*chunker.HashSize)
		off := 0
		for _, c := range cuts {
			if !chunksWritten[c.Hash] {
				write(recChunk, c.Hash[:], b.Payload[off:off+c.Len])
				chunksWritten[c.Hash] = true
			}
			manifest = append(manifest, c.Hash[:]...)
			off += c.Len
		}
		write(recPutBlkC, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, manifest, []byte{0})
		return true
	})
	for _, name := range l.st.Store.Names() {
		if id, ok := l.st.Store.Resolve(name); ok {
			write(recName, []byte(name), []byte(id))
		}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := fsio.SyncDir(l.dir); err != nil {
		return 0, fmt.Errorf("durable: snapshot: %w", err)
	}
	return size, nil
}

// removeCovered deletes WAL segments and snapshots made obsolete by the
// newest snapshot, plus abandoned temp files. Best-effort: leftovers are
// retried on the next snapshot or Open.
func (l *Log) removeCovered() {
	listing, err := listDir(l.dir)
	if err != nil {
		return
	}
	var snapSeq uint64
	if n := len(listing.snapSeqs); n > 0 {
		snapSeq = listing.snapSeqs[n-1]
	}
	for _, seq := range listing.walSeqs {
		if seq <= snapSeq {
			os.Remove(filepath.Join(l.dir, walName(seq)))
		}
	}
	for _, seq := range listing.snapSeqs {
		if seq < snapSeq {
			os.Remove(filepath.Join(l.dir, snapName(seq)))
		}
	}
	for _, name := range listing.tmp {
		os.Remove(filepath.Join(l.dir, name))
	}
}
