//go:build ignore

// Command genparentdir writes the data directory committed as
// internal/durable/testdata/parent-dir: a snapshot and a WAL tail as the
// oldest writer inside the compatibility window wrote them. It uses the
// durable API of commit 9116582, so it only builds there: copy it into a
// checkout of that commit and run, from the checkout's root,
//
//	go run genparentdir.go OUTDIR
//
// The snapshot holds documents, small blocks (recPutBlk), two
// near-duplicate large blocks as chunks and manifests (recChunk,
// recPutBlkC) and names (recName). The WAL tail holds a block put, a name
// re-point, a block delete, a document put and an edit of it (recPutDoc,
// recEditDoc, recPutBlk, recDelBlk, recName).
package main

import (
	"fmt"
	"os"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/edit"
	"repro/internal/media"
	"repro/internal/units"
)

// doc mirrors the durable tests' testDoc helper.
func doc(label string) *core.Document {
	root := core.NewPar().SetName("doc-" + label)
	root.Add(
		core.NewExt().SetName("clip").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String(label+".vid")),
		core.NewImm([]byte("caption "+label)).SetName("cap").
			SetAttr("channel", attr.ID("labels")),
	)
	d, err := core.NewDocument(root)
	must(err)
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)
	return d
}

// clip mirrors the parent-dir test's clip helper: size bytes from a
// fixed linear congruential sequence, with the 16 bytes at edit inverted
// (none when edit is negative).
func clip(name string, size, edit int) *media.Block {
	p := make([]byte, size)
	x := uint32(2463534242)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	for i := edit; i >= 0 && i < edit+16; i++ {
		p[i] ^= 0xff
	}
	return media.NewBlock(name, core.MediumVideo, p, attr.List{})
}

func binaryOf(d *core.Document) func() ([]byte, error) {
	return func() ([]byte, error) { return codec.EncodeBinary(d) }
}

// editDoc journals recs against the log's copy of name's document.
func editDoc(l *durable.Log, name string, recs ...core.ChangeRecord) {
	next := l.Doc(name).Clone()
	must(edit.Apply(next, recs))
	must(l.EditDoc(name, recs, core.EncodeChangeRecords(recs), binaryOf(next)))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genparentdir:", err)
		os.Exit(1)
	}
}

func put(st *durable.State, b *media.Block) {
	_, err := st.Store.Put(b)
	must(err)
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: genparentdir OUTDIR")
		os.Exit(2)
	}
	l, st, err := durable.Open(os.Args[1], durable.Options{Sync: durable.SyncNever, SnapshotBytes: -1})
	must(err)
	st.Store.SetJournal(l)

	// Covered by the snapshot: small block puts, a name re-point, a
	// block delete, two near-duplicate large blocks, and a document put
	// and edited.
	for i := 0; i < 3; i++ {
		put(st, media.CaptureText(fmt.Sprintf("story-%d.txt", i), fmt.Sprintf("story body %d", i), "en"))
	}
	put(st, media.CaptureText("story-0.txt", "rewritten", "en"))
	victim := media.CaptureText("victim.txt", "doomed", "en")
	put(st, victim)
	st.Store.Delete(victim.ID)
	put(st, clip("clip-a.vid", 32<<10, -1))
	put(st, clip("clip-b.vid", 32<<10, 24<<10))
	news := doc("news")
	must(l.PutDoc("news", news, binaryOf(news)))
	dur, err := edit.RecordSetAttr("/clip", "duration", attr.Quantity(units.MS(4000)))
	must(err)
	editDoc(l, "news", dur)
	must(l.Snapshot())

	// The WAL tail: a block put, a name re-point, a block put and
	// delete, and a document put and edited.
	put(st, media.CaptureText("late.txt", "after the snapshot", "en"))
	put(st, media.CaptureText("story-1.txt", "rewritten after the snapshot", "en"))
	doomed := media.CaptureText("doomed.txt", "doomed after the snapshot", "en")
	put(st, doomed)
	st.Store.Delete(doomed.ID)
	late := doc("late")
	must(l.PutDoc("late", late, binaryOf(late)))
	leaf := core.NewImm([]byte("extra")).SetName("extra").SetAttr("channel", attr.ID("labels"))
	ins, err := edit.RecordInsert("/", -1, leaf)
	must(err)
	editDoc(l, "late", ins)
	must(l.Err())
	must(l.Close())
}
