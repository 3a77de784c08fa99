package edit

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
)

// Change-record construction and re-execution. A core.ChangeRecord is the
// wire form of one edit; this file is the single bridge between records
// and the path-addressed edit operations: writers build records with the
// Record* constructors, and every receiver — the authoritative server
// copy, the durable log's replay and fold, and each subscriber replica —
// re-executes them through Apply. Because every receiver runs the identical code, a
// replica that applies the pushed records of an edit stream is
// structurally identical to the source document, and its own change log
// advances by the same entries, which is what lets incremental
// rescheduling run on replicas.

// RecordSetAttr builds the record for SetAttr(path, name, v).
func RecordSetAttr(path, name string, v attr.Value) (core.ChangeRecord, error) {
	payload, err := codec.EncodeBinaryValue(v)
	if err != nil {
		return core.ChangeRecord{}, fmt.Errorf("edit: encode attr value: %w", err)
	}
	return core.ChangeRecord{Op: core.OpSetAttr, Path: path, Name: name, Payload: payload}, nil
}

// RecordAddArc builds the record for AddArc(path, a).
func RecordAddArc(path string, a core.SyncArc) (core.ChangeRecord, error) {
	payload, err := codec.EncodeBinaryValue(a.Value())
	if err != nil {
		return core.ChangeRecord{}, fmt.Errorf("edit: encode arc: %w", err)
	}
	return core.ChangeRecord{Op: core.OpAddArc, Path: path, Payload: payload}, nil
}

// RecordRemoveArc builds the record for RemoveArc(path, index).
func RecordRemoveArc(path string, index int) core.ChangeRecord {
	return core.ChangeRecord{Op: core.OpRemoveArc, Path: path, Index: index}
}

// RecordInsert builds the record for InsertNode(parentPath, index, child).
// The child subtree is serialized; the caller keeps ownership of it.
func RecordInsert(parentPath string, index int, child *core.Node) (core.ChangeRecord, error) {
	payload, err := codec.EncodeBinaryNode(child)
	if err != nil {
		return core.ChangeRecord{}, fmt.Errorf("edit: encode subtree: %w", err)
	}
	return core.ChangeRecord{Op: core.OpInsert, Dest: parentPath, Index: index, Payload: payload}, nil
}

// RecordDelete builds the record for DeleteNode(path).
func RecordDelete(path string) core.ChangeRecord {
	return core.ChangeRecord{Op: core.OpRemove, Path: path}
}

// RecordMove builds the record for MoveNode(fromPath, toParentPath, index).
func RecordMove(fromPath, toParentPath string, index int) core.ChangeRecord {
	return core.ChangeRecord{Op: core.OpMove, Path: fromPath, Dest: toParentPath, Index: index}
}

// RecordRename builds the record for RenameNode(path, newName).
func RecordRename(path, newName string) core.ChangeRecord {
	return core.ChangeRecord{Op: core.OpRename, Path: path, Name: newName}
}

// Apply re-executes an ordered edit batch against d, in place and all or
// nothing: at the first record that fails — an unresolvable path, a
// malformed payload, a structural rejection — the records before it are
// taken back, and d, its Generation() and its ChangesSince are as they
// were; the error names the failed record. It runs no arc check — no
// caller on the record path reads a broken-arc report — so a record costs
// what it touches, except that a move or rename rewrites every arc.
func Apply(d *core.Document, recs []core.ChangeRecord) error {
	var u undoLog
	return u.apply(d, recs)
}

// ApplyUndo is Apply that also returns the applied batch's undo, for a
// caller that must still be able to refuse the batch — a registry whose
// journal rejects it. Calling undo before any other change to d restores
// d, its generation and its change log to what they were.
func ApplyUndo(d *core.Document, recs []core.ChangeRecord) (undo func(), err error) {
	u := new(undoLog)
	if err := u.apply(d, recs); err != nil {
		return nil, err
	}
	return u.undo, nil
}

// undoLog is what taking a batch back needs: a step per mutation, saved
// before it, and the generation the change log is cut back to. The
// reporting ops, which never take an edit back, pass a nil log, which
// records nothing.
type undoLog struct {
	d     *core.Document
	gen   uint64
	steps []undoStep
}

// undoStep restores one node: its attribute list, or (place) its position
// — under parent at index, or detached when parent is nil.
type undoStep struct {
	node   *core.Node
	place  bool
	attrs  attr.List
	parent *core.Node
	index  int
}

// apply runs the batch, taking back what it applied at the first record
// that fails.
func (u *undoLog) apply(d *core.Document, recs []core.ChangeRecord) error {
	u.d, u.gen = d, d.Generation()
	for i, rec := range recs {
		if err := applyOne(d, rec, u); err != nil {
			u.undo()
			return fmt.Errorf("edit: record %d (%v): %w", i, rec.Op, err)
		}
	}
	return nil
}

// saveAttrs records n's attribute list before a mutation changes it.
func (u *undoLog) saveAttrs(n *core.Node) {
	if u != nil {
		u.steps = append(u.steps, undoStep{node: n, attrs: n.Attrs.Snapshot()})
	}
}

// savePlace records n's position before a mutation moves it.
func (u *undoLog) savePlace(n *core.Node) {
	if u != nil {
		u.steps = append(u.steps, undoStep{node: n, place: true, parent: n.Parent(), index: n.Index()})
	}
}

// undo reverts the steps newest first and cuts the change log back.
func (u *undoLog) undo() {
	for i := len(u.steps) - 1; i >= 0; i-- {
		s := &u.steps[i]
		if !s.place {
			s.node.Attrs = s.attrs
			continue
		}
		if p := s.node.Parent(); p != nil {
			p.RemoveChild(s.node.Index())
		}
		if s.parent != nil {
			s.parent.InsertChild(s.index, s.node)
		}
	}
	u.steps = nil
	u.d.CutChanges(u.gen)
}

// applyOne dispatches one record to its edit operation.
func applyOne(d *core.Document, rec core.ChangeRecord, u *undoLog) error {
	switch rec.Op {
	case core.OpSetAttr:
		v, err := codec.DecodeBinaryValue(rec.Payload)
		if err != nil {
			return err
		}
		return setAttr(d, rec.Path, rec.Name, v, u)
	case core.OpAddArc:
		v, err := codec.DecodeBinaryValue(rec.Payload)
		if err != nil {
			return err
		}
		a, err := core.ParseArc(v)
		if err != nil {
			return err
		}
		return addArc(d, rec.Path, a, u)
	case core.OpRemoveArc:
		return removeArc(d, rec.Path, rec.Index, u)
	case core.OpInsert:
		child, err := codec.DecodeBinaryNode(rec.Payload)
		if err != nil {
			return err
		}
		return insertNode(d, rec.Dest, rec.Index, child, u)
	case core.OpRemove:
		return deleteNode(d, rec.Path, u)
	case core.OpMove:
		_, err := moveNode(d, rec.Path, rec.Dest, rec.Index, u)
		return err
	case core.OpRename:
		_, err := renameNode(d, rec.Path, rec.Name, u)
		return err
	default:
		return fmt.Errorf("unknown edit op %d", byte(rec.Op))
	}
}
