package edge

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/media"
	"repro/internal/transport"
)

// lyingOrigin answers one content address with another block's bytes.
type lyingOrigin struct {
	*transport.Registry
	addr  string
	other *media.Block
}

func (o lyingOrigin) GetBlock(name string) (*media.Block, bool) {
	if name == o.addr {
		return o.other, true
	}
	return o.Registry.GetBlock(name)
}

// TestEdgeCachesNoMisaddressedBlock: an origin that answers a content
// address with other bytes gets nothing cached under that address, in
// memory or on disk; the edge answers not-found, and a downstream client
// sees ErrNotFound.
func TestEdgeCachesNoMisaddressedBlock(t *testing.T) {
	store := media.NewStore()
	want := media.CaptureVideo("anchor.vid", 5, 16, 12, 25, 1)
	other := media.CaptureVideo("other.vid", 6, 16, 12, 25, 1)
	store.Put(want)
	store.Put(other)
	origin := transport.NewServer(lyingOrigin{transport.NewRegistry(store), want.ID, other})
	originAddr, err := origin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	cacheDir := t.TempDir()
	e, err := New(Config{Origin: originAddr, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr, err := e.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if b, ok := e.GetBlock(want.ID); ok {
		t.Fatalf("edge served %s for the lied-about address", b.Name)
	}
	c, err := transport.Dial(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetBlock(context.Background(), want.ID); !errors.Is(err, transport.ErrNotFound) {
		t.Fatalf("client through the edge: %v, want ErrNotFound", err)
	}
	if _, ok := e.mem.get(want.ID); ok {
		t.Fatal("memory tier cached a block under the lied-about address")
	}
	for _, key := range []string{want.ID, other.ID} {
		if _, ok := e.disk.Get(key); ok {
			t.Fatalf("disk tier holds a block under %s", key[:12])
		}
	}
	if n := cachedFiles(t, cacheDir); n != 0 {
		t.Fatalf("disk tier wrote %d files", n)
	}

	// The honest address still fills both tiers.
	if b, ok := e.GetBlock(other.ID); !ok || b.ID != other.ID {
		t.Fatal("edge refused an honest address")
	}
	if _, ok := e.mem.get(other.ID); !ok || cachedFiles(t, cacheDir) == 0 {
		t.Fatal("an honest fetch was not cached")
	}
}

// cachedFiles counts the regular files under dir.
func cachedFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
