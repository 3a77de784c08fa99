package core

// EffectiveAttr exposes the single-name lookup to the external tests, which
// need internal/corpus and internal/codec (both import core).
var EffectiveAttr = (*Document).effectiveAttr
