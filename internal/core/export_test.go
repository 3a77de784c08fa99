package core

import "fmt"

// EffectiveAttr exposes the single-name lookup to the external tests, which
// need internal/corpus and internal/codec (both import core).
var EffectiveAttr = (*Document).effectiveAttr

// Err is the error every attribute lookup on the node reports — a broken
// style reference on the node or an ancestor — for the oracle tests.
func (r *Resolved) Err() error {
	if r.styleErr == nil {
		return nil
	}
	return fmt.Errorf("core: %s: %w", r.errAt.PathString(), r.styleErr)
}

// ChannelErr is the error ChannelOf reports for the node; nil when Channel
// is set.
func (r *Resolved) ChannelErr() error {
	switch {
	case r.styleErr != nil:
		return r.Err()
	case !r.chanBound:
		return fmt.Errorf("core: %s has no channel attribute", r.Node.PathString())
	case r.Channel == nil:
		return fmt.Errorf("core: %s names undefined channel %q", r.Node.PathString(), r.chanName)
	}
	return nil
}
