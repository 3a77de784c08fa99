package cmif_test

import (
	"context"
	"fmt"
	"log"

	"repro/cmif"
)

// ExampleParse reads a document from its transportable text form — the
// parenthesized structure of the paper's Figure 5 — and resolves its
// timing.
func ExampleParse() {
	doc, err := cmif.Parse(`
		(par
		  (name show)
		  (channeldict [(subtitles [(medium text)])])
		  (imm
		    (name caption)
		    (channel subtitles)
		    (duration 2s)
		    (data "hello")
		  )
		)`)
	if err != nil {
		log.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		log.Fatal(err)
	}
	plan, err := cmif.Schedule(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("makespan:", plan.Makespan())
	// Output:
	// makespan: 2s
}

// ExampleRunPipeline drives an authored document through the whole
// target-system-dependent pipeline — validation, timing, presentation
// mapping, constraint filtering, simulated playback — for one device
// profile, backed by a block store.
func ExampleRunPipeline() {
	// Author a slide show whose picture comes from the block store.
	store := cmif.NewStore()
	store.Put(cmif.CaptureImage("intro.img", 320, 200, 7))

	root := cmif.NewPar().SetName("show")
	root.AddChild(cmif.NewExt().SetName("intro").
		SetAttr("channel", cmif.ID("screen")).
		SetAttr("file", cmif.String("intro.img")).
		SetAttr("duration", cmif.Qty(cmif.Sec(4))))
	root.AddChild(cmif.NewImm([]byte("welcome")).SetName("caption").
		SetAttr("channel", cmif.ID("subtitles")).
		SetAttr("duration", cmif.Qty(cmif.Sec(2))))
	doc, err := cmif.NewDocument(root)
	if err != nil {
		log.Fatal(err)
	}
	cd := cmif.NewChannelDict()
	cd.Define(cmif.Channel{Name: "screen", Medium: cmif.MediumImage})
	cd.Define(cmif.Channel{Name: "subtitles", Medium: cmif.MediumText})
	doc.SetChannels(cd)

	out, err := cmif.RunPipeline(context.Background(), doc,
		cmif.WithProfile(cmif.Workstation1991),
		cmif.WithStore(store),
		cmif.WithScreen(cmif.Screen{W: 1152, H: 900}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("makespan:", out.Schedule.Makespan())
	fmt.Println("supportable:", out.FilterMap.Supportable())
	fmt.Println("playback success:", out.Playback.Success())
	// Output:
	// makespan: 4s
	// supportable: true
	// playback success: true
}

// ExampleServe runs an in-process interchange server and a client
// against it: the document travels once, and its block list is
// prefetched in one batched round trip.
func ExampleServe() {
	// A served corpus: one document referencing one stored block.
	store := cmif.NewStore()
	store.Put(cmif.CaptureText("caption.txt", "goedenavond", "nl"))

	root := cmif.NewPar().SetName("bulletin")
	root.AddChild(cmif.NewExt().SetName("caption").
		SetAttr("channel", cmif.ID("subtitles")).
		SetAttr("file", cmif.String("caption.txt")).
		SetAttr("duration", cmif.Qty(cmif.Sec(3))))
	doc, err := cmif.NewDocument(root)
	if err != nil {
		log.Fatal(err)
	}
	cd := cmif.NewChannelDict()
	cd.Define(cmif.Channel{Name: "subtitles", Medium: cmif.MediumText})
	doc.SetChannels(cd)

	srv := cmif.NewServer(
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	client, err := cmif.Dial(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	fetched, err := client.Document(ctx, "news")
	if err != nil {
		log.Fatal(err)
	}
	// Prefetch the presentation's whole block list in batched round
	// trips; the result backs a local pipeline run via WithStore.
	local, err := cmif.PrefetchVia(ctx, client, fetched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("blocks prefetched:", local.Len())
	// Output:
	// blocks prefetched: 1
}
