//go:build ignore

// Command genparentdir writes the data directory committed as
// internal/durable/testdata/parent-dir. It uses the durable API of commit
// 8005186, the last one whose writers emitted the retired record ops 2
// (document delete), 5 and 6 (descriptor upsert and delete), so it only
// builds there: copy it into a checkout of that commit and run, from the
// checkout's root,
//
//	go run genparentdir.go OUTDIR
package main

import (
	"fmt"
	"os"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/durable"
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
	if err != nil {
		panic(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 25}})
	cd.Define(core.Channel{Name: "labels", Medium: core.MediumText})
	d.SetChannels(cd)
	return d
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genparentdir:", err)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: genparentdir OUTDIR")
		os.Exit(2)
	}
	l, st, err := durable.Open(os.Args[1], durable.Options{Sync: durable.SyncNever, SnapshotBytes: -1})
	must(err)
	st.Store.SetJournal(l)
	st.DB.SetJournal(l)

	// Covered by the snapshot: block puts, a name re-point, a block
	// delete, two documents and a delete of one, descriptor upserts and
	// a descriptor delete.
	for i := 0; i < 3; i++ {
		st.Store.Put(media.CaptureText(fmt.Sprintf("story-%d.txt", i), fmt.Sprintf("story body %d", i), "en"))
	}
	st.Store.Put(media.CaptureText("story-0.txt", "rewritten", "en"))
	victim := media.CaptureText("victim.txt", "doomed", "en")
	st.Store.Put(victim)
	st.Store.Delete(victim.ID)
	must(l.PutDoc("news", doc("news")))
	must(l.PutDoc("gone", doc("gone")))
	must(l.DelDoc("gone"))
	var desc attr.List
	desc.Set("format", attr.ID("utf8"))
	desc.Set("bytes", attr.Number(42))
	st.DB.Upsert("desc-a", desc)
	st.DB.Upsert("desc-b", desc)
	st.DB.Delete("desc-b")
	must(l.Snapshot())

	// The WAL tail: a block, a document put and delete, and descriptor
	// records of both kinds.
	st.Store.Put(media.CaptureText("late.txt", "after the snapshot", "en"))
	must(l.PutDoc("late", doc("late")))
	must(l.PutDoc("doomed", doc("doomed")))
	must(l.DelDoc("doomed"))
	st.DB.Upsert("desc-c", desc)
	st.DB.Delete("desc-a")
	must(l.Err())
	must(l.Close())
}
