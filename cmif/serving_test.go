package cmif_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/cmif"
	"repro/internal/codec"
)

// The two wire ops a raw hello exchange uses (docs/PROTOCOL.md).
const (
	opHello byte = 9
	opOK    byte = 128
)

// rawHello offers protocol v4 on a fresh connection to addr and returns
// the answer frame's op and parts.
func rawHello(t *testing.T, addr string) (byte, [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// u32 totalLen | u8 op | u16 partCount | u32 len | version
	if _, err := conn.Write([]byte{0, 0, 0, 8, opHello, 0, 1, 0, 0, 0, 1, 4}); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatalf("reading the hello answer: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("reading the hello answer: %v", err)
	}
	op, rest := body[0], body[3:]
	parts := make([][]byte, binary.BigEndian.Uint16(body[1:3]))
	for i := range parts {
		n := binary.BigEndian.Uint32(rest)
		parts[i], rest = rest[4:4+n], rest[4+n:]
	}
	return op, parts
}

// TestServingKnobsReachEveryTier hands the same serving options to an
// origin, an edge and a cluster node: each advertises the same hello,
// and one shared registry counts each tier's requests.
func TestServingKnobsReachEveryTier(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := cmif.NewMetrics()
	maxInFlight, noCompression, shared := cmif.WithMaxInFlight(3), cmif.WithServerCompression(false), cmif.WithServerMetrics(reg)

	origin := cmif.NewServer(maxInFlight, noCompression, shared)
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })
	edge, err := cmif.NewEdge(cmif.WithOrigin(originAddr), cmif.WithCacheDir(t.TempDir()), maxInFlight, noCompression, shared)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edge.Close() })
	edgeAddr, err := edge.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := cmif.JoinCluster(cmif.WithDataDir(t.TempDir()), maxInFlight, noCompression, shared)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	lists := reg.Counter("cmif_requests_total", "", "op", "list")
	for _, tier := range []struct {
		name, addr string
		lists      int64 // an edge forwards its listing, so the origin counts one too
	}{
		{"origin", originAddr, 1},
		{"edge", edgeAddr, 2},
		{"node", node.Addr(), 1},
	} {
		t.Run(tier.name, func(t *testing.T) {
			op, parts := rawHello(t, tier.addr)
			want := fmt.Sprintf("%d %q", opOK, [][]byte{{4}, {0, 3}, {codec.FrameCodecNone}})
			if got := fmt.Sprintf("%d %q", op, parts); got != want {
				t.Fatalf("hello answer = %s, want %s", got, want)
			}
			c, err := cmif.Dial(ctx, tier.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := lists.Value()
			if _, err := c.List(ctx); err != nil {
				t.Fatal(err)
			}
			if got := lists.Value() - before; got != tier.lists {
				t.Fatalf("cmif_requests_total{op=\"list\"} moved by %d, want %d", got, tier.lists)
			}
		})
	}
}
