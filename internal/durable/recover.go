package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// File naming: 16 hex digits keep lexical and numeric order identical, so
// a directory listing is already replay order.
const (
	walPrefix  = "wal-"
	walSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func walName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", walPrefix, seq, walSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the sequence number from a wal/snap file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// dirListing is the classified contents of a data directory.
type dirListing struct {
	walSeqs  []uint64 // ascending
	snapSeqs []uint64 // ascending
	tmp      []string // abandoned temp files (crash mid-snapshot)
}

func listDir(dir string) (*dirListing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &dirListing{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			l.tmp = append(l.tmp, name)
			continue
		}
		if seq, ok := parseSeq(name, walPrefix, walSuffix); ok {
			l.walSeqs = append(l.walSeqs, seq)
		} else if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			l.snapSeqs = append(l.snapSeqs, seq)
		}
	}
	sort.Slice(l.walSeqs, func(i, j int) bool { return l.walSeqs[i] < l.walSeqs[j] })
	sort.Slice(l.snapSeqs, func(i, j int) bool { return l.snapSeqs[i] < l.snapSeqs[j] })
	return l, nil
}

// replayStream applies every record in r to st. When tornOK, an
// incomplete final record is tolerated and replay stops cleanly at the
// last good offset; otherwise it is corruption. The returned offset is the
// end of the last applied record — the truncation point for a torn tail.
//
// Block addresses are checked beside the loop, and replayStream waits for
// every check before it returns. A failed check is an earlier record
// than any the loop stopped at, so it wins, and a bad address is never
// mistaken for a torn tail; the failed blocks are purged from st.
func replayStream(r io.Reader, path string, st *State, tornOK bool) (int64, error) {
	chk := newAddrChecker()
	end, err := replayRecords(r, path, st, tornOK, chk)
	if pos, reason := chk.wait(); reason != nil {
		chk.purge(st)
		return pos, &CorruptError{Path: path, Offset: pos, Reason: reason.Error()}
	}
	return end, err
}

// replayRecords is replayStream's loop: it decodes, verifies and applies
// each record, queueing block address checks on chk.
func replayRecords(r io.Reader, path string, st *State, tornOK bool, chk *addrChecker) (int64, error) {
	sc := newRecordScanner(r, path)
	var fieldsBuf [][]byte
	for {
		start := sc.offset
		payload, kept, err := sc.next()
		if err == io.EOF {
			return sc.offset, nil
		}
		if err == errTorn {
			if !tornOK {
				return start, &CorruptError{Path: path, Offset: start,
					Reason: "torn record outside the final segment tail"}
			}
			return start, nil
		}
		if err != nil {
			return start, err
		}
		op, fields, err := decodeRecord(payload, fieldsBuf)
		if err != nil {
			return start, &CorruptError{Path: path, Offset: start, Reason: err.Error()}
		}
		fieldsBuf = fields
		m, err := st.verify(op, fields, kept, chk, start)
		if err == nil {
			err = st.apply(m)
		}
		if err != nil {
			return start, &CorruptError{Path: path, Offset: start, Reason: err.Error()}
		}
	}
}

// replayFile replays one segment or snapshot file. repair truncates a
// tolerated torn tail in place so the file is clean for appending and for
// the next recovery.
func replayFile(path string, st *State, tornOK, repair bool) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	end, rerr := replayStream(br, path, st, tornOK)
	cerr := f.Close()
	if rerr != nil {
		return end, rerr
	}
	if cerr != nil {
		return end, cerr
	}
	if repair {
		if info, err := os.Stat(path); err == nil && info.Size() > end {
			if err := os.Truncate(path, end); err != nil {
				return end, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
			}
		}
	}
	return end, nil
}

// recoverDir rebuilds the state from dir: newest snapshot first, then the
// WAL segments it does not cover, in sequence order. It returns the live
// (uncompacted) WAL byte count and the highest sequence number in use.
// repair additionally truncates a torn tail off the final segment.
func recoverDir(dir string, repair bool) (st *State, walBytes int64, maxSeq uint64, err error) {
	// Replay is a tight rebuild loop whose garbage is all short-lived;
	// letting the collector run at its default cadence costs a third of
	// the recovery time. Back it off (bounded — the heap still caps at
	// a small multiple of the corpus) and restore on the way out.
	defer relaxGC()()

	listing, err := listDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	st = newState()

	var snapSeq uint64
	if n := len(listing.snapSeqs); n > 0 {
		snapSeq = listing.snapSeqs[n-1]
		maxSeq = snapSeq
		// Snapshots are written to a temp file and renamed into place,
		// so a snapshot that exists at all must read back perfectly:
		// no torn tail is tolerated.
		path := filepath.Join(dir, snapName(snapSeq))
		if _, err := replayFile(path, st, false, false); err != nil {
			return nil, 0, 0, fmt.Errorf("durable: snapshot %s: %w", snapName(snapSeq), err)
		}
	}

	live := listing.walSeqs[:0:0]
	for _, seq := range listing.walSeqs {
		if seq > snapSeq {
			live = append(live, seq)
		}
	}
	for i, seq := range live {
		last := i == len(live)-1
		path := filepath.Join(dir, walName(seq))
		n, err := replayFile(path, st, last, repair && last)
		if err != nil {
			return nil, 0, 0, err
		}
		walBytes += n
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	// Snapshot chunk staging and the descriptor memo are replay-only
	// scratch; drop them before the state goes live so the unique-chunk
	// copies don't shadow the corpus and the memo doesn't grow with it.
	st.releaseReplay()
	return st, walBytes, maxSeq, nil
}

// The GC back-off is a process-global knob, so overlapping recoveries
// must not each save-and-restore it (the restores would interleave and
// leave a wrong value behind). A refcount makes the first recovery set
// it and the last one restore it.
var (
	gcMu    sync.Mutex
	gcDepth int
	gcPrev  int
)

// relaxGC raises GOGC for the duration of a recovery; call the returned
// function to undo it. Reentrant across concurrent recoveries.
func relaxGC() func() {
	gcMu.Lock()
	gcDepth++
	if gcDepth == 1 {
		gcPrev = debug.SetGCPercent(300)
	}
	gcMu.Unlock()
	return func() {
		gcMu.Lock()
		gcDepth--
		if gcDepth == 0 {
			debug.SetGCPercent(gcPrev)
		}
		gcMu.Unlock()
	}
}

// Load performs a read-only recovery of dir: no repair, no compaction, no
// open log. It is what offline tools (and the bench harness) use to
// inspect a data directory, and what Open builds on.
//
// Load requires the directory to be quiescent, like Open: reading under
// a live writer can race a compaction (a listed segment vanishes) or
// catch the active segment mid-append and mistake the half-written
// record for a torn tail, silently dropping acknowledged mutations.
// Stop the server, or snapshot-copy the directory, before loading it.
func Load(dir string) (*State, error) {
	st, _, _, err := recoverDir(dir, false)
	return st, err
}
