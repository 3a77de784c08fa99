package cmif

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/transport"
)

// Sentinel errors forming the facade's error taxonomy. Every error escaping
// the cmif package wraps one of these (or is a typed error such as
// *ValidationError), so callers branch with errors.Is / errors.As instead
// of matching message strings.
var (
	// ErrNotFound reports that a requested document, block or file does
	// not exist — locally (Open on a missing path) or on a server
	// (Client.Document / Client.Block on an unregistered name).
	ErrNotFound = errors.New("cmif: not found")

	// ErrBadFormat reports input that is neither a well-formed text
	// document nor a well-formed binary document: syntax errors, corrupt
	// binary framing, or bytes whose format cannot be detected at all.
	ErrBadFormat = errors.New("cmif: bad format")

	// ErrRemote marks failures reported by an interchange server rather
	// than produced locally. A remote not-found wraps both ErrRemote and
	// ErrNotFound.
	ErrRemote = errors.New("cmif: remote error")

	// ErrBusy reports a per-connection backpressure rejection: the server
	// already had its maximum number of requests in flight on the
	// connection (WithMaxInFlight) and refused to queue more. A busy
	// rejection wraps both ErrRemote and ErrBusy; retry after in-flight
	// work completes.
	ErrBusy = errors.New("cmif: server busy")

	// ErrUnsupported reports a source that cannot serve the request at
	// all: Dial fails with it when the server does not speak the wire
	// protocol's one version (v4) — it refuses the hello, or answers with
	// another version — and a Fetcher layer that cannot push changes
	// fails Subscribe with it.
	ErrUnsupported = errors.New("cmif: not supported")

	// ErrConflict reports a rejected edit submission: a concurrent
	// writer's edit was accepted first and this batch's pre-edit paths no
	// longer resolve. Nothing was applied — catch up (Subscription.Next,
	// or a fresh fetch) and rebuild the batch. A conflict wraps both
	// ErrRemote and ErrConflict.
	ErrConflict = errors.New("cmif: edit conflict")
)

// ValidationError reports that a document failed validation. It carries the
// full issue list; Issues of severity Error caused the failure.
type ValidationError struct {
	// Issues is everything validation found, warnings included.
	Issues []Issue
}

// Error summarizes the validation failure with its first error issue.
func (e *ValidationError) Error() string {
	errs := core.Errors(e.Issues)
	if len(errs) == 0 {
		return "cmif: document is invalid"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cmif: document has %d validation error(s): %v", len(errs), errs[0])
	return b.String()
}

// Errors returns only the error-severity issues.
func (e *ValidationError) Errors() []Issue { return core.Errors(e.Issues) }

// Warnings returns only the warning-severity issues.
func (e *ValidationError) Warnings() []Issue { return core.Warnings(e.Issues) }

// taggedError attaches one or more taxonomy sentinels to an underlying
// error while preserving it for errors.As.
type taggedError struct {
	tags []error
	err  error
}

func (e *taggedError) Error() string { return e.err.Error() }

// Unwrap exposes both the sentinels and the cause to errors.Is/As.
func (e *taggedError) Unwrap() []error { return append(e.tags[:len(e.tags):len(e.tags)], e.err) }

// tag wraps err so it matches every sentinel in tags under errors.Is while
// keeping the original error reachable for errors.As. A nil err stays nil.
func tag(err error, tags ...error) error {
	if err == nil {
		return nil
	}
	return &taggedError{tags: tags, err: err}
}

// badFormat wraps a codec error into the ErrBadFormat branch of the
// taxonomy.
func badFormat(err error) error { return tag(err, ErrBadFormat) }

// wireError translates an internal transport error into the facade
// taxonomy: remote not-founds match both ErrRemote and ErrNotFound, other
// remote failures match ErrRemote, and everything else (dial errors,
// cancelled contexts, broken connections) passes through unchanged.
func wireError(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, transport.ErrUnsupported):
		// The hello found no common version: not a server-reported
		// failure of an operation.
		return tag(err, ErrUnsupported)
	case errors.Is(err, transport.ErrConflict):
		return tag(err, ErrRemote, ErrConflict)
	case errors.Is(err, transport.ErrNotFound):
		return tag(err, ErrRemote, ErrNotFound)
	case errors.Is(err, transport.ErrBusy):
		return tag(err, ErrRemote, ErrBusy)
	case errors.Is(err, transport.ErrRemote):
		return tag(err, ErrRemote)
	default:
		return err
	}
}

// validationError builds a *ValidationError when issues contain at least
// one error-severity finding, and returns nil otherwise.
func validationError(issues []Issue) error {
	if len(core.Errors(issues)) == 0 {
		return nil
	}
	return &ValidationError{Issues: issues}
}
