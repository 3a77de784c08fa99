// Package edit implements the editing half of the pipeline's Document
// Structure Mapping and Viewing/Reading tools: structural operations on
// CMIF documents that keep synchronization arcs valid. The paper: "it is
// not possible to alter the order of events within the document by viewing
// it — re-ordering requires re-editing the document", and the viewing tools
// "provide a means for a reader to 'view' or (possibly) edit a document".
//
// Arcs reference nodes by relative path, so structural edits can silently
// break them. The interactive operations (InsertNode, DeleteNode,
// MoveNode, RenameNode) run an arc-integrity check and report the arcs
// they severed; MoveNode and RenameNode also rewrite the arc paths they can
// repair. Apply, the record path every server, log and replica runs, makes
// the same edits without the checks: nothing reads their report there.
package edit
