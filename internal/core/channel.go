package core

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/units"
)

// Medium enumerates the media a synchronization channel can carry. "Each
// channel describes how data of a single medium is manipulated in the
// document" (section 3.1). The set mirrors the evening-news example: video,
// sound, graphic, captioned text and label text.
type Medium int

const (
	// MediumText is the default medium (section 5.1: immediate node data
	// "is either text (the default) or another medium").
	MediumText Medium = iota
	// MediumAudio is sampled sound.
	MediumAudio
	// MediumVideo is a sequence of frames.
	MediumVideo
	// MediumImage is a single raster image.
	MediumImage
	// MediumGraphic is structured (vector) graphic data.
	MediumGraphic
)

var mediumNames = [...]string{"text", "audio", "video", "image", "graphic"}

// String returns the medium keyword.
func (m Medium) String() string {
	if m >= 0 && int(m) < len(mediumNames) {
		return mediumNames[m]
	}
	return fmt.Sprintf("medium(%d)", int(m))
}

// ParseMedium maps a keyword to its Medium.
func ParseMedium(s string) (Medium, error) {
	for i, n := range mediumNames {
		if n == s {
			return Medium(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown medium %q", s)
}

// Channel is one synchronization channel definition from the root node's
// channel dictionary. "Events that are placed on a single channel are
// synchronized in linear time order ... Two events that are placed on
// separate channels may be executed in parallel" (section 3.1).
type Channel struct {
	Name   string
	Medium Medium
	// Rates carries the channel's media-dependent unit conversion rates
	// (frame rate for video channels, sample rate for audio channels).
	Rates units.Rates
	// Attrs holds any further channel attributes (placement preferences,
	// language tags, device hints) that downstream tools interpret.
	Attrs attr.List
}

// Resolver returns a unit resolver for quantities on this channel.
func (c Channel) Resolver() *units.Resolver {
	return units.NewResolver(c.Rates)
}

// ChannelValue encodes the channel back into dictionary entry form.
func (c Channel) Value() attr.Value {
	items := []attr.Item{attr.Named("medium", attr.ID(c.Medium.String()))}
	if c.Rates.FrameRate > 0 {
		items = append(items, attr.Named("framerate", attr.Number(c.Rates.FrameRate)))
	}
	if c.Rates.SampleRate > 0 {
		items = append(items, attr.Named("samplerate", attr.Number(c.Rates.SampleRate)))
	}
	if c.Rates.ByteRate > 0 {
		items = append(items, attr.Named("byterate", attr.Number(c.Rates.ByteRate)))
	}
	for _, p := range c.Attrs.Pairs() {
		items = append(items, attr.Named(p.Name, p.Value))
	}
	return attr.ListOf(items...)
}

// ParseChannel decodes one channel dictionary entry.
func ParseChannel(name string, v attr.Value) (Channel, error) {
	c := Channel{Name: name}
	items, ok := v.AsList()
	if !ok {
		return c, fmt.Errorf("core: channel %q definition must be a list", name)
	}
	sawMedium := false
	for _, it := range items {
		switch it.Name {
		case "":
			return c, fmt.Errorf("core: channel %q has unnamed definition field", name)
		case "medium":
			id, ok := it.Value.AsID()
			if !ok {
				return c, fmt.Errorf("core: channel %q medium must be an ID", name)
			}
			m, err := ParseMedium(id)
			if err != nil {
				return c, fmt.Errorf("core: channel %q: %w", name, err)
			}
			c.Medium = m
			sawMedium = true
		case "framerate":
			n, ok := it.Value.AsInt()
			if !ok || n <= 0 {
				return c, fmt.Errorf("core: channel %q framerate must be a positive number", name)
			}
			c.Rates.FrameRate = n
		case "samplerate":
			n, ok := it.Value.AsInt()
			if !ok || n <= 0 {
				return c, fmt.Errorf("core: channel %q samplerate must be a positive number", name)
			}
			c.Rates.SampleRate = n
		case "byterate":
			n, ok := it.Value.AsInt()
			if !ok || n <= 0 {
				return c, fmt.Errorf("core: channel %q byterate must be a positive number", name)
			}
			c.Rates.ByteRate = n
		default:
			if c.Attrs.Has(it.Name) {
				return c, fmt.Errorf("core: channel %q repeats attribute %q", name, it.Name)
			}
			c.Attrs.Set(it.Name, it.Value)
		}
	}
	if !sawMedium {
		return c, fmt.Errorf("core: channel %q has no medium (\"each channel definition defines the medium used by that channel\")", name)
	}
	return c, nil
}

// ChannelDict is an ordered set of channel definitions.
type ChannelDict struct {
	channels map[string]*Channel
	order    []string
}

// NewChannelDict returns an empty dictionary.
func NewChannelDict() *ChannelDict {
	return &ChannelDict{channels: make(map[string]*Channel)}
}

// Define adds or replaces a channel definition.
func (d *ChannelDict) Define(c Channel) {
	if _, exists := d.channels[c.Name]; !exists {
		d.order = append(d.order, c.Name)
	}
	d.channels[c.Name] = &c
}

// Lookup returns the channel named name.
func (d *ChannelDict) Lookup(name string) (Channel, bool) {
	if c, ok := d.channels[name]; ok {
		return *c, true
	}
	return Channel{}, false
}

// Names returns channel names in definition order.
func (d *ChannelDict) Names() []string {
	return append([]string(nil), d.order...)
}

// Channels returns the definitions in definition order.
func (d *ChannelDict) Channels() []Channel {
	out := make([]Channel, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, *d.channels[n])
	}
	return out
}

// Len reports the number of channels.
func (d *ChannelDict) Len() int { return len(d.channels) }

// ParseChannelDict decodes a root "channeldict" attribute value.
func ParseChannelDict(v attr.Value) (*ChannelDict, error) {
	items, ok := v.AsList()
	if !ok {
		return nil, fmt.Errorf("core: channeldict must be a list, got %v", v.Kind())
	}
	d := NewChannelDict()
	for _, it := range items {
		if it.Name == "" {
			return nil, fmt.Errorf("core: channeldict entries must be named")
		}
		if _, dup := d.Lookup(it.Name); dup {
			return nil, fmt.Errorf("core: channeldict repeats channel %q", it.Name)
		}
		c, err := ParseChannel(it.Name, it.Value)
		if err != nil {
			return nil, err
		}
		d.Define(c)
	}
	return d, nil
}

// DictValue serializes the dictionary back to a channeldict attribute value.
func (d *ChannelDict) DictValue() attr.Value {
	items := make([]attr.Item, 0, len(d.order))
	for _, n := range d.order {
		items = append(items, attr.Named(n, d.channels[n].Value()))
	}
	return attr.ListOf(items...)
}
