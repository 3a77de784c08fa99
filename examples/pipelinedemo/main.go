// Pipelinedemo: the full Figure-1 pipeline including network interchange.
// A producer builds the evening news and serves it; a consumer with a
// constrained device fetches the structure first (cheap), decides it wants
// the document, fetches it inlined (no shared storage server), rebuilds a
// local block store, and runs presentation mapping, constraint filtering
// and playback locally — every step through the public repro/cmif facade,
// under one cancellable context.
//
//	go run ./examples/pipelinedemo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/cmif"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// --- producer side ---
	doc, store, err := cmif.BuildNews(cmif.NewsConfig{Stories: 2})
	if err != nil {
		log.Fatal(err)
	}
	srv := cmif.NewServer(
		cmif.WithServedStore(store),
		cmif.WithServedDocument("news", doc),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("producer: serving the news on %s (%d blocks, %d payload bytes)\n",
		addr, store.Len(), store.TotalBytes())

	// --- consumer side ---
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 1. Fetch structure only: enough to inspect, schedule and decide.
	structure, err := c.Document(ctx, "news")
	if err != nil {
		log.Fatal(err)
	}
	structureBytes := c.BytesReceived()
	stats := structure.Stats()
	fmt.Printf("consumer: structure is %d bytes (%d nodes, %d arcs) — decided to fetch\n",
		structureBytes, stats.Nodes, stats.Arcs)

	// 2. Fetch inlined: document plus payloads in one transfer.
	inlined, err := c.Document(ctx, "news", cmif.WithInline())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: inlined transfer was %d bytes (%.0fx the structure)\n",
		c.BytesReceived()-structureBytes,
		float64(c.BytesReceived()-structureBytes)/float64(structureBytes))

	// 3. Rebuild a local store from the inlined document.
	localStore := cmif.NewStore()
	localDoc, err := cmif.Extract(inlined, localStore)
	if err != nil {
		log.Fatal(err)
	}
	if err := localStore.VerifyAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: rebuilt local store with %d blocks\n", localStore.Len())

	// 4. Run the local stages for a constrained laptop. The run is backed
	// by a Fetcher chain instead of a bare store: the rebuilt local store
	// answers first, and anything it lacks falls through to the origin
	// client. The same code works against an edge proxy: a Client dialed
	// to the edge's address is its cmif.Fetcher.
	out, err := cmif.RunPipeline(ctx, localDoc,
		cmif.WithProfile(cmif.Laptop1991),
		cmif.WithFetcher(cmif.Chain(cmif.StoreFetcher(localStore), c)),
		cmif.WithScreen(cmif.Screen{W: 640, H: 480}),
		cmif.WithSpeakers(1),
		cmif.WithDeviceJitter(cmif.UniformJitter(42, 25*time.Millisecond)),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconsumer pipeline outcome:")
	fmt.Print(out.Summary())
	fmt.Println("\npresentation map:")
	fmt.Print(out.Presentation)
	fmt.Println("\nfilter decisions:")
	fmt.Print(out.FilterMap)
	if !out.Playback.Success() {
		log.Fatal("playback violated must arcs")
	}
	fmt.Println("\nplayback honoured every must relationship on the laptop")
}
