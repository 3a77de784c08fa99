// Command cmifcapture is the Media Block Capture Tool: it synthesizes data
// blocks (video, audio, image, graphic, text) into an on-disk store whose
// manifest is itself a CMIF document. "Our focus is on providing
// descriptive tools that allow higher-level processing of various bits of
// collected information."
//
// Usage:
//
//	cmifcapture -dir ./store -name clip.vid -medium video -frames 100 -w 64 -h 48 -fps 25
//	cmifcapture -dir ./store -name voice.aud -medium audio -ms 5000 -rate 8000
//	cmifcapture -dir ./store -name still.img -medium image -w 320 -h 240
//	cmifcapture -dir ./store -name label.txt -medium text -text "Story 3"
//	cmifcapture -dir ./store -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmif"
)

func main() {
	dir := flag.String("dir", "./store", "store directory")
	list := flag.Bool("list", false, "list the store instead of capturing")
	name := flag.String("name", "", "block name (the document's file attribute)")
	medium := flag.String("medium", "text", "video, audio, image, graphic or text")
	frames := flag.Int("frames", 100, "video frame count")
	w := flag.Int("w", 64, "raster width")
	h := flag.Int("h", 48, "raster height")
	fps := flag.Int64("fps", 25, "video frame rate")
	ms := flag.Int64("ms", 1000, "audio length in milliseconds")
	rate := flag.Int64("rate", 8000, "audio sample rate")
	freq := flag.Int64("freq", 440, "audio tone frequency")
	strokes := flag.Int("strokes", 32, "graphic stroke count")
	text := flag.String("text", "", "text payload")
	lang := flag.String("lang", "en", "text language tag")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	store, err := cmif.LoadStoreDir(*dir)
	if err != nil {
		store = cmif.NewStore() // fresh store
	}

	if *list {
		for _, n := range store.Names() {
			b, _ := store.GetByName(n)
			fmt.Printf("%-24s %-8s %10d bytes  %s\n", b.Name, b.Medium, len(b.Payload), b.ID[:12])
		}
		fmt.Printf("%d blocks, %d payload bytes\n", store.Len(), store.TotalBytes())
		return
	}
	if *name == "" {
		fatal(fmt.Errorf("-name is required"))
	}

	var blk *cmif.Block
	switch *medium {
	case "video":
		blk = cmif.CaptureVideo(*name, *frames, *w, *h, *fps, *seed)
	case "audio":
		blk = cmif.CaptureAudio(*name, *ms, *rate, *freq, *seed)
	case "image":
		blk = cmif.CaptureImage(*name, *w, *h, *seed)
	case "graphic":
		blk = cmif.CaptureGraphic(*name, *strokes, *seed)
	case "text":
		blk = cmif.CaptureText(*name, *text, *lang)
	default:
		fatal(fmt.Errorf("unknown medium %q", *medium))
	}
	if _, err := store.Put(blk); err != nil {
		fatal(err)
	}
	if err := cmif.SaveStoreDir(store, *dir); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %s as %s\n", blk, blk.ID[:12])
	fmt.Printf("descriptor: %s\n", blk.Descriptor.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmifcapture:", err)
	os.Exit(1)
}
