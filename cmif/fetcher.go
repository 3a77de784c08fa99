package cmif

import (
	"context"
	"errors"
	"fmt"
)

// Fetcher is the transport-neutral read surface of the facade: everything
// a consumer needs to resolve a document's content — batched block and
// descriptor fetches, document retrieval, live subscription — without
// committing to where the bytes come from. *Client implements it against
// whatever server it dialed — an origin, or an edge whose disk cache
// reads through to one — *ClusterClient against a cluster, and Chain
// composes any number of layers into one fall-through lookup path.
// RunPipeline (WithFetcher), PrefetchVia and the cmd/ tools all consume
// this interface rather than *Client, so a presentation can be resolved
// against an origin, an edge, or a purely local store with the same code.
type Fetcher interface {
	// Blocks fetches many blocks at once. The result aligns with names;
	// an unresolvable name yields a nil entry (partial results are not an
	// error).
	Blocks(ctx context.Context, names []string) ([]*Block, error)
	// Descriptors fetches only the attribute lists of the named blocks.
	// Unresolvable names are absent from the result map.
	Descriptors(ctx context.Context, names []string) (map[string]AttrList, error)
	// OpenDoc fetches the document registered under name. A missing name
	// matches ErrNotFound under errors.Is.
	OpenDoc(ctx context.Context, name string) (*Document, error)
	// Subscribe opens a live replica of the document registered under
	// name. Sources that cannot push changes fail with ErrUnsupported.
	Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error)
}

// subscribeConfig collects the subscription options.
type subscribeConfig struct {
	subtree string
	sched   []ScheduleOption
}

// SubscribeOption configures Fetcher.Subscribe.
type SubscribeOption func(*subscribeConfig)

// WithSubtree restricts the subscription's delta stream to changes
// affecting the subtree rooted at the absolute path (for example
// "/news/story-3"). The opening snapshot is still the whole document —
// replicas stay structurally complete — but deltas only carry change
// records whose pre-edit path or destination lies inside the subtree or
// on the ancestor chain above it (an ancestor's removal or attribute
// change affects everything below). Generations still advance with every
// server-side edit, so a filtered delta may carry zero records; the
// replica is authoritative only within the watched subtree. "" or "/"
// watches everything (the default). An edge serving one section of a
// large corpus leases just that section's change traffic.
func WithSubtree(path string) SubscribeOption {
	return func(c *subscribeConfig) { c.subtree = path }
}

// WithSubscribeSchedule forwards scheduling options to the Plan a
// subscription maintains over its replica (see Schedule).
func WithSubscribeSchedule(opts ...ScheduleOption) SubscribeOption {
	return func(c *subscribeConfig) { c.sched = append(c.sched, opts...) }
}

func subscribeConfigOf(opts []SubscribeOption) subscribeConfig {
	var cfg subscribeConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.subtree == "/" {
		cfg.subtree = ""
	}
	return cfg
}

// PrefetchVia resolves every external file the document references and
// fetches the blocks through f in batched round trips, returning a local
// store ready to back a pipeline run (WithStore). Blocks the fetcher
// cannot resolve are simply absent from the store — constraint filtering
// reports them as missing data — so a partial corpus is not an error.
func PrefetchVia(ctx context.Context, f Fetcher, d *Document) (*Store, error) {
	store := NewStore()
	names := d.ExternalFiles()
	if len(names) == 0 {
		return store, nil
	}
	blocks, err := f.Blocks(ctx, names)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if b == nil {
			continue
		}
		// Where the source resolved an alias (a re-pointed or duplicate
		// name), register the block under the name the document uses, or
		// the pipeline would see it as missing.
		if _, err := store.Put(b.WithName(names[i])); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// chain is the Fetcher returned by Chain.
type chain struct {
	layers []Fetcher
}

// Chain composes fetchers into one fall-through lookup path: each
// request tries the layers in order, and whatever the earlier layers
// cannot resolve falls through to the later ones. Blocks and Descriptors
// merge partial results across layers — a name resolves wherever it
// first appears; OpenDoc and Subscribe return the first layer's answer,
// falling through on ErrNotFound (and, for Subscribe, ErrUnsupported).
// The canonical arrangement puts cheap local layers first and the origin
// last: Chain(StoreFetcher(local), edgeClient, originClient), where
// edgeClient is a Client dialed to an edge.
func Chain(fetchers ...Fetcher) Fetcher {
	layers := make([]Fetcher, 0, len(fetchers))
	for _, f := range fetchers {
		if f != nil {
			layers = append(layers, f)
		}
	}
	return &chain{layers: layers}
}

func (ch *chain) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	result := make([]*Block, len(names))
	missing := len(names)
	var firstErr error
	for _, layer := range ch.layers {
		if missing == 0 {
			break
		}
		// Ask this layer only for what earlier layers left unresolved.
		want := make([]string, 0, missing)
		idx := make([]int, 0, missing)
		for i, b := range result {
			if b == nil {
				want = append(want, names[i])
				idx = append(idx, i)
			}
		}
		got, err := layer.Blocks(ctx, want)
		if err != nil {
			// A dead layer resolves nothing; later layers still get
			// their chance. The error surfaces only if every name a
			// healthy layer could have served stays missing.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for j, b := range got {
			if j >= len(idx) {
				break
			}
			if b != nil {
				result[idx[j]] = b
				missing--
			}
		}
	}
	if missing == len(names) && firstErr != nil {
		return nil, firstErr
	}
	return result, nil
}

func (ch *chain) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	result := make(map[string]AttrList, len(names))
	var firstErr error
	for _, layer := range ch.layers {
		var want []string
		for _, n := range names {
			if _, ok := result[n]; !ok {
				want = append(want, n)
			}
		}
		if len(want) == 0 {
			break
		}
		got, err := layer.Descriptors(ctx, want)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for n, d := range got {
			result[n] = d
		}
	}
	if len(result) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return result, nil
}

func (ch *chain) OpenDoc(ctx context.Context, name string) (*Document, error) {
	err := error(ErrNotFound)
	for _, layer := range ch.layers {
		d, lerr := layer.OpenDoc(ctx, name)
		if lerr == nil {
			return d, nil
		}
		if errors.Is(lerr, ErrNotFound) || errors.Is(lerr, ErrUnsupported) {
			continue
		}
		err = lerr
	}
	return nil, err
}

func (ch *chain) Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error) {
	err := error(ErrUnsupported)
	for _, layer := range ch.layers {
		s, lerr := layer.Subscribe(ctx, name, opts...)
		if lerr == nil {
			return s, nil
		}
		if errors.Is(lerr, ErrNotFound) || errors.Is(lerr, ErrUnsupported) {
			continue
		}
		err = lerr
	}
	return nil, err
}

// storeFetcher adapts a local Store to the Fetcher interface.
type storeFetcher struct {
	store *Store
}

// StoreFetcher wraps a local block store as a read-only Fetcher: Blocks
// and Descriptors resolve against the store, OpenDoc and Subscribe
// always miss (ErrNotFound / ErrUnsupported). Useful as the first layer
// of a Chain, so already-materialized content short-circuits the
// network.
func StoreFetcher(s *Store) Fetcher { return &storeFetcher{store: s} }

func (sf *storeFetcher) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	result := make([]*Block, len(names))
	for i, n := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if b, ok := sf.store.GetByName(n); ok {
			result[i] = b
		} else if b, ok := sf.store.Get(n); ok {
			result[i] = b
		}
	}
	return result, nil
}

func (sf *storeFetcher) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	result := make(map[string]AttrList, len(names))
	blocks, err := sf.Blocks(ctx, names)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if b != nil {
			result[names[i]] = b.Descriptor
		}
	}
	return result, nil
}

func (sf *storeFetcher) OpenDoc(ctx context.Context, name string) (*Document, error) {
	return nil, tag(fmt.Errorf("cmif: store fetcher holds no documents: %q", name), ErrNotFound)
}

func (sf *storeFetcher) Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error) {
	return nil, tag(fmt.Errorf("cmif: store fetcher cannot subscribe: %q", name), ErrUnsupported)
}
