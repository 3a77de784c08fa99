package mark

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/cmif"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/units"
)

// opKind is one kind of author op.
type opKind byte

const (
	opSetAttr   opKind = 'S' // reassign an immediate leaf's duration
	opAddArc    opKind = 'A' // add a May arc from a leaf to its previous sibling
	opRemoveArc opKind = 'R' // remove the oldest arc this author added
	opInsert    opKind = 'I' // insert a copy of an immediate leaf
	opDelete    opKind = 'D' // delete the oldest node this author inserted
	opBlock     opKind = 'B' // put a new 64 KiB block and insert the leaf that references it
)

// authorRound is the fixed op mix: of 20 ops, 19 are SubmitEdit alone
// (10 set-attr, 3 add-arc, 3 remove-arc, 1 insert, 2 delete) and 1 is a
// PutBlock plus the insert that references the block. Inserts and
// deletes balance within a round, so the document ends every round
// within two nodes of its starting size, and every add-arc is removed
// later in the same round. The mix is a fixed cycle and not a random
// draw so that bytes per op repeat whatever the seed.
const authorRound = "BSISASDSASRSDSASRSRS"

// liveBlockBytes is the payload size of a block the author puts.
const liveBlockBytes = 64 << 10

// AuthorOp is one generated author op: an edit batch, and for opBlock
// the block to put before submitting it.
type AuthorOp struct {
	Kind  opKind
	Batch *cmif.EditBatch
	Block *cmif.Block
	// commit updates the generator's bookkeeping once the op is applied.
	commit func()
}

// UserBytes is what the op asks the server to keep: the encoded change
// records plus the block payload.
func (op *AuthorOp) UserBytes() int64 {
	recs, err := op.Batch.Records()
	if err != nil {
		return 0
	}
	n := int64(len(core.EncodeChangeRecords(recs)))
	if op.Block != nil {
		n += int64(len(op.Block.Payload))
	}
	return n
}

// arcTarget is a leaf that can take an arc from its previous sibling.
type arcTarget struct{ path, prev string }

// EditGen generates the author's seeded op sequence against a mirror of
// the live document. It is a pure state machine — Next builds the op the
// current mirror allows, Commit applies it — so the same seed yields the
// same ops with or without a server.
type EditGen struct {
	rnd    *rand.Rand
	seed   uint64
	mirror *cmif.Document
	n      int // ops generated

	attrLeaves []string    // immediate leaves whose duration set-attr reassigns
	plain      []arcTarget // arc-free immediate leaves with a previous sibling
	extModel   string      // an external leaf to model block inserts on; "" if the shape has none
	extMedium  core.Medium

	inserted []string // FIFO of nodes this author inserted
	arcs     []string // FIFO of leaves holding an arc this author added
}

// NewEditGen prepares a generator over a private clone of doc. store
// resolves the medium of the external leaf block inserts are modelled on.
func NewEditGen(seed uint64, doc *cmif.Document, store *cmif.Store) (*EditGen, error) {
	g := &EditGen{
		rnd:    rand.New(rand.NewSource(int64(mix(seed, 0xa07)))),
		seed:   seed,
		mirror: doc.Clone(),
	}
	g.mirror.Root().Walk(func(n *cmif.Node) bool {
		switch {
		case n.Type == cmif.Imm && n.Attrs.Has("duration"):
			g.attrLeaves = append(g.attrLeaves, n.PathString())
			if prev := n.PrevSibling(); prev != nil && prev.Name() != "" && !n.Attrs.Has("syncarcs") {
				g.plain = append(g.plain, arcTarget{n.PathString(), prev.Name()})
			}
		case n.Type == cmif.Ext && g.extModel == "":
			if file, ok := g.mirror.FileOf(n); ok {
				if b, ok := store.GetByName(file); ok {
					g.extModel, g.extMedium = n.PathString(), b.Medium
				}
			}
		}
		return true
	})
	if len(g.attrLeaves) == 0 || len(g.plain) == 0 {
		return nil, fmt.Errorf("live document has no immediate leaves to edit")
	}
	return g, nil
}

// Mirror is the author's copy of the document, in step with every
// committed op.
func (g *EditGen) Mirror() *cmif.Document { return g.mirror }

func parentPath(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

func childPath(parent, name string) string {
	if parent == "/" {
		return "/" + name
	}
	return parent + "/" + name
}

func (g *EditGen) duration() cmif.Value {
	return cmif.Qty(cmif.MS(int64(1500 + g.rnd.Intn(2500))))
}

// Next builds the next op of the cycle. A remove-arc or delete with
// nothing of the author's own left to remove (only possible if the cycle
// is entered mid-round) degrades to a set-attr.
func (g *EditGen) Next() (*AuthorOp, error) {
	kind := opKind(authorRound[g.n%len(authorRound)])
	seq := g.n
	g.n++
	if kind == opBlock && g.extModel == "" {
		kind = opInsert
	}
	if (kind == opRemoveArc && len(g.arcs) == 0) || (kind == opDelete && len(g.inserted) == 0) {
		kind = opSetAttr
	}
	op := &AuthorOp{Kind: kind, Batch: cmif.NewEditBatch(), commit: func() {}}
	switch kind {
	case opSetAttr:
		op.Batch.SetAttr(g.attrLeaves[g.rnd.Intn(len(g.attrLeaves))], "duration", g.duration())
	case opAddArc:
		t := g.plain[g.rnd.Intn(len(g.plain))]
		op.Batch.AddArc(t.path, cmif.SyncArc{
			DestEnd: cmif.Begin, Strict: cmif.May,
			Source: "../" + t.prev, SrcEnd: cmif.End,
			MaxDelay: cmif.MS(int64(100 + g.rnd.Intn(400))),
		})
		op.commit = func() { g.arcs = append(g.arcs, t.path) }
	case opRemoveArc:
		op.Batch.RemoveArc(g.arcs[0], 0)
		op.commit = func() { g.arcs = g.arcs[1:] }
	case opInsert:
		t := g.plain[g.rnd.Intn(len(g.plain))]
		model, err := g.mirror.ResolvePath(t.path)
		if err != nil {
			return nil, fmt.Errorf("author op %d: %w", seq, err)
		}
		name := fmt.Sprintf("ins-%d", seq)
		child := model.Clone().SetName(name).SetAttr("duration", g.duration())
		parent := parentPath(t.path)
		op.Batch.Insert(parent, -1, child)
		op.commit = func() { g.inserted = append(g.inserted, childPath(parent, name)) }
	case opDelete:
		op.Batch.Delete(g.inserted[0])
		op.commit = func() { g.inserted = g.inserted[1:] }
	case opBlock:
		model, err := g.mirror.ResolvePath(g.extModel)
		if err != nil {
			return nil, fmt.Errorf("author op %d: %w", seq, err)
		}
		name := fmt.Sprintf("blk-%d", seq)
		file := fmt.Sprintf("live-%d-%d.blk", g.seed, seq)
		op.Block = liveBlock(file, g.extMedium, g.rnd)
		child := model.Clone().SetName(name).SetAttr("file", cmif.String(file))
		child.Attrs.Del("syncarcs")
		parent := parentPath(g.extModel)
		op.Batch.Insert(parent, -1, child)
		op.commit = func() { g.inserted = append(g.inserted, childPath(parent, name)) }
	}
	if _, err := op.Batch.Records(); err != nil {
		return nil, fmt.Errorf("author op %d (%c): %w", seq, kind, err)
	}
	return op, nil
}

// Commit applies an acknowledged op to the mirror.
func (g *EditGen) Commit(op *AuthorOp) error {
	if err := op.Batch.Apply(g.mirror); err != nil {
		return fmt.Errorf("mirror rejected an acknowledged edit: %w", err)
	}
	op.commit()
	return nil
}

// liveBlock makes a block of liveBlockBytes seeded-random bytes, so no
// two blocks share content and none compresses or dedupes away.
func liveBlock(name string, medium core.Medium, rnd *rand.Rand) *media.Block {
	payload := make([]byte, liveBlockBytes)
	rnd.Read(payload)
	var desc attr.List
	switch medium {
	case core.MediumVideo:
		desc = attr.MustList(
			attr.P(media.DescWidth, attr.Number(32)),
			attr.P(media.DescHeight, attr.Number(32)),
			attr.P(media.DescFrames, attr.Number(64)),
			attr.P(media.DescFrameRate, attr.Number(25)),
			attr.P(media.DescColorBits, attr.Number(8)),
			attr.P(media.DescDuration, attr.Quantity(units.Q(64, units.Frames))),
		)
	case core.MediumImage:
		desc = attr.MustList(
			attr.P(media.DescWidth, attr.Number(256)),
			attr.P(media.DescHeight, attr.Number(256)),
			attr.P(media.DescColorBits, attr.Number(8)),
		)
	}
	return media.NewBlock(name, medium, payload, desc)
}
