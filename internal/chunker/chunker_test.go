package chunker

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// testData returns deterministic pseudo-random bytes.
func testData(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	return data
}

func checkInvariants(t *testing.T, data []byte, chunks [][]byte, cfg Config) {
	t.Helper()
	cfg = cfg.normalize()
	var joined []byte
	for i, c := range chunks {
		if len(c) > cfg.Max {
			t.Fatalf("chunk %d is %d bytes, above max %d", i, len(c), cfg.Max)
		}
		if len(c) < cfg.Min && i != len(chunks)-1 {
			t.Fatalf("non-final chunk %d is %d bytes, below min %d", i, len(c), cfg.Min)
		}
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatalf("chunks do not concatenate back to the input (%d vs %d bytes)", len(joined), len(data))
	}
}

func TestSplitInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 100, DefaultMin, DefaultMin + 1, 1 << 16, 1 << 20} {
		data := testData(t, n, int64(n))
		chunks := Split(data, Config{})
		checkInvariants(t, data, chunks, Config{})
		if n >= 4*DefaultAvg {
			if len(chunks) < 2 {
				t.Fatalf("%d bytes produced only %d chunks", n, len(chunks))
			}
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	data := testData(t, 1<<18, 7)
	a := Split(data, Config{})
	b := Split(data, Config{})
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestSplitSubslices(t *testing.T) {
	// Chunks must alias the input, not copy it.
	data := testData(t, 1<<16, 3)
	chunks := Split(data, Config{})
	off := 0
	for i, c := range chunks {
		if len(c) > 0 && &c[0] != &data[off] {
			t.Fatalf("chunk %d is not a subslice of the input", i)
		}
		off += len(c)
	}
}

func TestSplitConstantBytesHitsMax(t *testing.T) {
	// A constant run gives the rolling hash no cut opportunities (one
	// fixed hash value); every chunk must be forced out at Max.
	data := bytes.Repeat([]byte{0xCC}, 1<<19)
	chunks := Split(data, Config{})
	checkInvariants(t, data, chunks, Config{})
	for i, c := range chunks[:len(chunks)-1] {
		if len(c) != DefaultMax {
			t.Fatalf("constant-data chunk %d is %d bytes, want max %d", i, len(c), DefaultMax)
		}
	}
}

func TestSplitAverageNearConfigured(t *testing.T) {
	data := testData(t, 4<<20, 11)
	chunks := Split(data, Config{})
	avg := len(data) / len(chunks)
	// Gear with a min-size skip lands above the nominal average;
	// accept a generous band — the point is it tracks the config.
	if avg < DefaultAvg/2 || avg > DefaultAvg*3 {
		t.Fatalf("mean chunk size %d far from configured average %d", avg, DefaultAvg)
	}
}

func TestSplitCustomConfig(t *testing.T) {
	cfg := Config{Min: 256, Avg: 1024, Max: 4096}
	data := testData(t, 1<<18, 5)
	chunks := Split(data, cfg)
	checkInvariants(t, data, chunks, cfg)
	if avg := len(data) / len(chunks); avg < cfg.Avg/2 || avg > cfg.Avg*3 {
		t.Fatalf("mean chunk size %d far from configured average %d", avg, cfg.Avg)
	}
}

// chunkSet returns the multiset of chunk hashes as a map hash→count.
func chunkSet(chunks [][]byte) map[string]int {
	set := make(map[string]int, len(chunks))
	for _, c := range chunks {
		h := Sum(c)
		set[hex.EncodeToString(h[:])]++
	}
	return set
}

// sharedChunks counts how many chunks (by content) two splits share.
func sharedChunks(a, b [][]byte) int {
	sa := chunkSet(a)
	n := 0
	for _, c := range b {
		h := Sum(c)
		k := hex.EncodeToString(h[:])
		if sa[k] > 0 {
			sa[k]--
			n++
		}
	}
	return n
}

// TestEditLocality is the dedupe-bearing property: editing one byte of
// a large payload must leave the overwhelming majority of chunks
// byte-identical, or near-duplicate blocks would not dedupe.
func TestEditLocality(t *testing.T) {
	data := testData(t, 1<<20, 13)
	orig := Split(data, Config{})

	for _, pos := range []int{0, 1 << 10, len(data) / 2, len(data) - 1} {
		edited := bytes.Clone(data)
		edited[pos] ^= 0xFF
		mod := Split(edited, Config{})
		checkInvariants(t, edited, mod, Config{})

		shared := sharedChunks(orig, mod)
		changed := len(mod) - shared
		// An edit can disturb the chunk containing it plus a bounded
		// resync tail. 8 changed chunks out of ~128 is already loose.
		if changed > 8 {
			t.Fatalf("edit at %d changed %d of %d chunks; want local damage", pos, changed, len(mod))
		}
	}
}

// TestPrefixStability pins the provable half of locality: every
// boundary more than 63 bytes (the gear window) before the edit is
// identical, because a cut decision at position p reads only bytes
// (p-63..p] and earlier boundaries.
func TestPrefixStability(t *testing.T) {
	data := testData(t, 1<<19, 17)
	pos := len(data) / 2
	edited := bytes.Clone(data)
	edited[pos] ^= 0x01

	a := Split(data, Config{})
	b := Split(edited, Config{})
	stable := pos - 64
	var ab, bb []int
	for off, i := 0, 0; i < len(a); i++ {
		off += len(a[i])
		if off < stable {
			ab = append(ab, off)
		}
	}
	for off, i := 0, 0; i < len(b); i++ {
		off += len(b[i])
		if off < stable {
			bb = append(bb, off)
		}
	}
	if len(ab) != len(bb) {
		t.Fatalf("prefix boundary counts differ: %d vs %d", len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("prefix boundary %d moved: %d vs %d (edit at %d)", i, ab[i], bb[i], pos)
		}
	}
}

func TestSumDistinguishesContent(t *testing.T) {
	a := Sum([]byte("alpha"))
	b := Sum([]byte("beta"))
	if a == b {
		t.Fatal("distinct chunks hashed equal")
	}
	if a != Sum([]byte("alpha")) {
		t.Fatal("Sum is not deterministic")
	}
}

// TestCutsMatchSplit: Cuts names exactly the chunks Split returns, in
// order, and their lengths cover the payload end to end.
func TestCutsMatchSplit(t *testing.T) {
	for _, n := range []int{0, 100, 1 << 18} {
		data := testData(t, n, int64(n)+11)
		chunks := Split(data, Config{})
		cuts := Cuts(data)
		if len(cuts) != len(chunks) {
			t.Fatalf("%d bytes: %d cuts, %d chunks", n, len(cuts), len(chunks))
		}
		off := 0
		for i, c := range cuts {
			if c.Len != len(chunks[i]) || c.Hash != Sum(data[off:off+c.Len]) {
				t.Fatalf("%d bytes: cut %d is not chunk %d", n, i, i)
			}
			off += c.Len
		}
		if off != n {
			t.Fatalf("cuts cover %d of %d bytes", off, n)
		}
	}
}

// FuzzChunker checks the structural invariants plus the
// chunk-boundary stability property on arbitrary data: flip one byte
// and every boundary more than one gear window before the edit must
// survive.
func FuzzChunker(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint32(7))
	f.Add(bytes.Repeat([]byte{0}, 9000), uint32(4500))
	f.Add(bytes.Repeat([]byte("CMIF multimedia interchange "), 600), uint32(1))
	big := make([]byte, 40<<10)
	rng := rand.New(rand.NewSource(42))
	rng.Read(big)
	f.Add(big, uint32(20<<10))

	f.Fuzz(func(t *testing.T, data []byte, editPos uint32) {
		cfg := Config{Min: 64, Avg: 256, Max: 1024}.normalize()
		chunks := Split(data, cfg)

		// Invariant: concatenation reproduces the input, sizes bounded.
		var joined []byte
		for i, c := range chunks {
			if len(c) > cfg.Max {
				t.Fatalf("chunk %d above max: %d", i, len(c))
			}
			if len(c) < cfg.Min && i != len(chunks)-1 {
				t.Fatalf("non-final chunk %d below min: %d", i, len(c))
			}
			joined = append(joined, c...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatal("chunks do not reassemble the input")
		}
		if len(data) == 0 {
			return
		}

		// Stability: one-byte edit leaves pre-edit boundaries intact.
		pos := int(editPos) % len(data)
		edited := bytes.Clone(data)
		edited[pos] ^= 0xA5
		mod := Split(edited, cfg)

		stable := pos - 64
		var origB, modB []int
		for off, i := 0, 0; i < len(chunks); i++ {
			off += len(chunks[i])
			if off < stable {
				origB = append(origB, off)
			}
		}
		for off, i := 0, 0; i < len(mod); i++ {
			off += len(mod[i])
			if off < stable {
				modB = append(modB, off)
			}
		}
		if len(origB) != len(modB) {
			t.Fatalf("edit at %d changed pre-edit boundary count: %d vs %d", pos, len(origB), len(modB))
		}
		for i := range origB {
			if origB[i] != modB[i] {
				t.Fatalf("edit at %d moved pre-edit boundary %d: %d vs %d", pos, i, origB[i], modB[i])
			}
		}
	})
}

// splitReference is the gear chunker hashing every byte from each
// chunk's start: the definition Split's 64-byte window must match.
func splitReference(data []byte, cfg Config) [][]byte {
	cfg = cfg.normalize()
	mask := uint64(cfg.Avg - 1)
	var chunks [][]byte
	start := 0
	var h uint64
	for i, b := range data {
		h = (h << 1) + gearTable[b]
		n := i - start + 1
		if n < cfg.Min {
			continue
		}
		if h&mask == 0 || n >= cfg.Max {
			chunks = append(chunks, data[start:i+1])
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		chunks = append(chunks, data[start:])
	}
	return chunks
}

// TestSplitMatchesReference: hashing only the 64 bytes before each
// possible cut cuts exactly where hashing every byte does, for the
// default sizes and for floors below, at and above the window, on
// random, constant and short data.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	random := make([]byte, 1<<20)
	rng.Read(random)
	inputs := [][]byte{random, make([]byte, 200<<10), random[:1], random[:63], random[:2049], random[:100<<10]}
	for _, cfg := range []Config{{}, {Min: 16, Avg: 64, Max: 256}, {Min: 64, Avg: 128, Max: 512}, {Min: 65, Avg: 256, Max: 300}, {Min: 1, Avg: 2, Max: 4}} {
		for _, data := range inputs {
			got, want := Split(data, cfg), splitReference(data, cfg)
			if len(got) != len(want) {
				t.Fatalf("%+v, %d bytes: %d chunks, want %d", cfg, len(data), len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%+v, %d bytes: chunk %d is %d bytes, want %d", cfg, len(data), i, len(got[i]), len(want[i]))
				}
			}
		}
	}
}
