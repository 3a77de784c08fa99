// Command cmifget fetches documents and blocks from a cmifd server.
//
// Usage:
//
//	cmifget [-addr 127.0.0.1:7911] [-timeout 10s] list
//	cmifget [-addr ...] [-inline] doc <name>
//	cmifget [-addr ...] block <name> [<name> ...]
//
// Flags go before the command: parsing stops at the first positional
// argument. Every request is bounded by -timeout; a missing document or
// block is reported distinctly from other failures. A document travels
// in the binary encoding and is printed in the text form. The names of
// one "block" command are fetched as one batch — a name may be a block's
// content address, and may repeat — and their payloads are written to
// stdout in the order named; nothing is written when one is missing.
//
// The address may point at any cmifd role — an origin, an edge proxy or
// a cluster node — fetches go through the transport-neutral cmif.Fetcher
// surface, so the tool neither knows nor cares which tier answers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmif"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7911", "server address")
	inline := flag.Bool("inline", false, "fetch documents with inlined payloads")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c, err := cmif.Dial(ctx, *addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	// Everything below fetches through the Fetcher interface; only
	// "-inline doc" reaches for the concrete client, because inlining is
	// a property of the dialed transport, not of the read surface.
	var f cmif.Fetcher = c

	switch flag.Arg(0) {
	case "list":
		names, err := c.List(ctx)
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "doc":
		if flag.NArg() != 2 {
			usage()
		}
		var doc *cmif.Document
		if *inline {
			doc, err = c.Document(ctx, flag.Arg(1), cmif.WithInline())
		} else {
			doc, err = f.OpenDoc(ctx, flag.Arg(1))
		}
		if err != nil {
			fatal(err)
		}
		if err := cmif.EncodeTo(os.Stdout, doc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cmifget: %d wire bytes received\n", c.BytesReceived())
	case "block":
		if flag.NArg() < 2 {
			usage()
		}
		names := flag.Args()[1:]
		blocks, err := f.Blocks(ctx, names)
		if err != nil {
			fatal(err)
		}
		for i, b := range blocks {
			if b == nil {
				fatal(fmt.Errorf("block %q: %w", names[i], cmif.ErrNotFound))
			}
		}
		for _, b := range blocks {
			fmt.Fprintf(os.Stderr, "cmifget: %s (%s, %d bytes)\n", b.Name, b.Medium, len(b.Payload))
			os.Stdout.Write(b.Payload)
		}
		fmt.Fprintf(os.Stderr, "cmifget: %d wire bytes received\n", c.BytesReceived())
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cmifget [-addr a] [-timeout d] [-inline] (list | doc <name> | block <name>...)")
	os.Exit(2)
}

func fatal(err error) {
	if errors.Is(err, cmif.ErrNotFound) {
		fmt.Fprintln(os.Stderr, "cmifget: not found:", err)
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "cmifget:", err)
	os.Exit(1)
}
