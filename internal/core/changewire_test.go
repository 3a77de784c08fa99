package core_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/units"
)

// hostileCountBlob declares 65,536 records (the limit) in four bytes.
var hostileCountBlob = []byte{1, 0x80, 0x80, 0x04}

// decodeAllocated decodes data and reports the bytes that took, by the
// TotalAlloc delta.
func decodeAllocated(data []byte) ([]core.ChangeRecord, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := core.DecodeChangeRecords(data)
	runtime.ReadMemStats(&after)
	return recs, after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodeChangeRecordsRefusesUnbackedCounts: a count the blob has no
// bytes for is refused before it sizes an allocation.
func TestDecodeChangeRecordsRefusesUnbackedCounts(t *testing.T) {
	_, n, err := decodeAllocated(hostileCountBlob)
	if err == nil || !strings.Contains(err.Error(), "truncated record") {
		t.Fatalf("err = %v, want a truncated-record error", err)
	}
	if n >= 4<<10 {
		t.Errorf("a %d-byte blob allocated %d bytes; want under 4 KiB", len(hostileCountBlob), n)
	}
	// The smallest records still decode at exactly the bound.
	recs := []core.ChangeRecord{{Op: core.OpRemove}, {Op: core.OpRename}}
	if got, err := core.DecodeChangeRecords(core.EncodeChangeRecords(recs)); err != nil || len(got) != 2 {
		t.Fatalf("two minimal records: %v, %d decoded", err, len(got))
	}
}

// changeSeeds encodes edit batches over real corpus documents: one of
// every op against live node paths, per shape.
func changeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, sh := range corpus.Shapes() {
		d := corpusDoc(tb, corpus.Spec{Shape: sh, Seed: 35, Size: 2, Depth: 2, Languages: 2})
		leaves := d.Root.Leaves()
		if len(leaves) < 2 {
			tb.Fatalf("%v: %d leaves", sh, len(leaves))
		}
		first, last := leaves[0].PathString(), leaves[len(leaves)-1].PathString()
		set, err := edit.RecordSetAttr(first, "duration", attr.Quantity(units.MS(400)))
		if err != nil {
			tb.Fatal(err)
		}
		ins, err := edit.RecordInsert("/", 0, leaves[1].Clone())
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds,
			core.EncodeChangeRecords([]core.ChangeRecord{set}),
			core.EncodeChangeRecords([]core.ChangeRecord{
				set, ins,
				edit.RecordMove(last, "/", 1),
				edit.RecordRename(first, "renamed"),
				edit.RecordRemoveArc(first, 0),
				edit.RecordDelete(last),
			}))
	}
	return append(seeds, core.EncodeChangeRecords(nil), hostileCountBlob)
}

// FuzzDecodeChangeRecords: the change-record decoder never panics, any
// blob it accepts decodes the same after a re-encode, and no blob makes
// it allocate more than 64 bytes per input byte plus 4 KiB.
func FuzzDecodeChangeRecords(f *testing.F) {
	for _, seed := range changeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := decodeAllocated(data)
		if limit := 64*uint64(len(data)) + 4<<10; n > limit {
			t.Fatalf("a %d-byte blob allocated %d bytes; limit %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		again, err := core.DecodeChangeRecords(core.EncodeChangeRecords(recs))
		if err != nil {
			t.Fatalf("an accepted blob does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encode changed the records: %+v -> %+v", recs, again)
		}
	})
}
