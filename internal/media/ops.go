package media

import (
	"encoding/binary"
	"fmt"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

// Block operations implementing the Figure-7 range attributes (Slice, Clip,
// Crop) and the constraint-filter transforms (sub-sampling, quantization,
// down-resolution). Every operation that changes content returns a new
// block with a corrected descriptor and no content address (derive);
// inputs are never mutated, and an operation with nothing to do (Quantize
// at or above the block's depth, Downres by zero halvings) returns its
// input.

// SliceBytes extracts payload bytes [from, to) — the "slice" attribute for
// external nodes specifying binary data.
func SliceBytes(b *Block, from, to int64) (*Block, error) {
	if from < 0 || to < from || to > int64(len(b.Payload)) {
		return nil, fmt.Errorf("media: slice [%d,%d) out of range for %d bytes",
			from, to, len(b.Payload))
	}
	out := derive(b, fmt.Sprintf("[%d:%d]", from, to), b.Medium, append([]byte(nil), b.Payload[from:to]...))
	// Byte slicing invalidates unit counts and duration.
	out.Descriptor.Del(DescFrames)
	out.Descriptor.Del(DescSamples)
	out.Descriptor.Del(DescDuration)
	return out, nil
}

// Clip extracts samples [from, to) of an audio block — the "clip" attribute
// ("a part of a sound fragment").
func Clip(b *Block, from, to int64) (*Block, error) {
	if b.Medium != core.MediumAudio {
		return nil, fmt.Errorf("media: clip on %v block %q", b.Medium, b.Name)
	}
	n := b.Samples()
	if from < 0 || to < from || to > n {
		return nil, fmt.Errorf("media: clip [%d,%d) out of range for %d samples",
			from, to, n)
	}
	out := derive(b, fmt.Sprintf("[clip %d:%d]", from, to), core.MediumAudio, append([]byte(nil), b.Payload[from:to]...))
	out.Descriptor.Set(DescSamples, attr.Number(to-from))
	out.Descriptor.Set(DescDuration, attr.Quantity(units.Q(to-from, units.Samples)))
	return out, nil
}

// Crop extracts a sub-rectangle of an image block — the "crop" attribute
// ("a subimage of an image").
func Crop(b *Block, x, y, w, h int64) (*Block, error) {
	if b.Medium != core.MediumImage {
		return nil, fmt.Errorf("media: crop on %v block %q", b.Medium, b.Name)
	}
	bw, bh := b.Width(), b.Height()
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > bw || y+h > bh {
		return nil, fmt.Errorf("media: crop %dx%d+%d+%d out of %dx%d", w, h, x, y, bw, bh)
	}
	payload := make([]byte, w*h)
	for row := int64(0); row < h; row++ {
		copy(payload[row*w:(row+1)*w], b.Payload[(y+row)*bw+x:(y+row)*bw+x+w])
	}
	out := derive(b, fmt.Sprintf("[crop %dx%d+%d+%d]", w, h, x, y), core.MediumImage, payload)
	out.Descriptor.Set(DescWidth, attr.Number(w))
	out.Descriptor.Set(DescHeight, attr.Number(h))
	return out, nil
}

// SubsampleFrames keeps every factor'th frame and divides the frame rate,
// preserving intrinsic duration — the constraint filter's "full-frame-rate
// video to sub-sampled rate video".
func SubsampleFrames(b *Block, factor int64) (*Block, error) {
	if b.Medium != core.MediumVideo {
		return nil, fmt.Errorf("media: subsample on %v block %q", b.Medium, b.Name)
	}
	if factor < 1 {
		return nil, fmt.Errorf("media: subsample factor %d < 1", factor)
	}
	rate, _ := b.Descriptor.GetInt(DescFrameRate)
	if rate%factor != 0 {
		return nil, fmt.Errorf("media: frame rate %d not divisible by %d", rate, factor)
	}
	frames, frameBytes := b.Frames(), b.Width()*b.Height()
	kept := (frames + factor - 1) / factor
	payload := make([]byte, 0, kept*frameBytes)
	for f := int64(0); f < frames; f += factor {
		payload = append(payload, b.Payload[f*frameBytes:(f+1)*frameBytes]...)
	}
	out := derive(b, fmt.Sprintf("[/%d fps]", factor), core.MediumVideo, payload)
	out.Descriptor.Set(DescFrames, attr.Number(kept))
	out.Descriptor.Set(DescFrameRate, attr.Number(rate/factor))
	out.Descriptor.Set(DescDuration, attr.Quantity(units.Q(kept, units.Frames)))
	return out, nil
}

// Quantize reduces color depth to bits (1..8) — "24-bit color to 8-bit
// color, color to monochrome". Applies to image and video payloads.
func Quantize(b *Block, bits int64) (*Block, error) {
	if b.Medium != core.MediumImage && b.Medium != core.MediumVideo {
		return nil, fmt.Errorf("media: quantize on %v block %q", b.Medium, b.Name)
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("media: quantize to %d bits", bits)
	}
	if bits >= b.ColorBits() {
		return b, nil
	}
	// (p>>s)<<s keeps a byte's top bits, which is p&mask; the loop masks
	// eight bytes at a time with mask repeated in every byte of word.
	mask := byte(0xff) << (8 - bits)
	word := uint64(mask) * 0x0101010101010101
	payload := make([]byte, len(b.Payload))
	i := 0
	for ; i+8 <= len(payload); i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], binary.LittleEndian.Uint64(b.Payload[i:])&word)
	}
	for ; i < len(payload); i++ {
		payload[i] = b.Payload[i] & mask
	}
	out := derive(b, fmt.Sprintf("[%dbit]", bits), b.Medium, payload)
	out.Descriptor.Set(DescColorBits, attr.Number(bits))
	return out, nil
}

// Downres halves raster resolution pow times by 2×2 averaging — "high
// resolution to low resolution". Applies to images and per-frame to video.
func Downres(b *Block, pow int) (*Block, error) {
	if b.Medium != core.MediumImage && b.Medium != core.MediumVideo {
		return nil, fmt.Errorf("media: downres on %v block %q", b.Medium, b.Name)
	}
	if pow < 0 {
		return nil, fmt.Errorf("media: downres power %d < 0", pow)
	}
	out := b
	for i := 0; i < pow; i++ {
		w, h := out.Width(), out.Height()
		if w < 2 || h < 2 {
			return nil, fmt.Errorf("media: cannot downres %dx%d further", w, h)
		}
		nw, nh := w/2, h/2
		frames := int64(1)
		if out.Medium == core.MediumVideo {
			frames = out.Frames()
		}
		payload := make([]byte, frames*nw*nh)
		for f := int64(0); f < frames; f++ {
			src := out.Payload[f*w*h : (f+1)*w*h]
			dst := payload[f*nw*nh : (f+1)*nw*nh]
			for y := int64(0); y < nh; y++ {
				for x := int64(0); x < nw; x++ {
					sum := int(src[(2*y)*w+2*x]) + int(src[(2*y)*w+2*x+1]) +
						int(src[(2*y+1)*w+2*x]) + int(src[(2*y+1)*w+2*x+1])
					dst[y*nw+x] = byte(sum / 4)
				}
			}
		}
		next := derive(out, "[half]", out.Medium, payload)
		next.Descriptor.Set(DescWidth, attr.Number(nw))
		next.Descriptor.Set(DescHeight, attr.Number(nh))
		out = next
	}
	return out, nil
}

// ApplyRegion interprets a node's slice/clip/crop attribute against a block,
// dispatching to the matching operation. This is how external-node range
// attributes are realized at presentation time.
func ApplyRegion(b *Block, attrName string, v attr.Value) (*Block, error) {
	switch attrName {
	case "slice":
		r, err := core.ParseRange(v)
		if err != nil {
			return nil, err
		}
		from, to, err := rangeBounds(r, int64(len(b.Payload)))
		if err != nil {
			return nil, err
		}
		return SliceBytes(b, from, to)
	case "clip":
		r, err := core.ParseRange(v)
		if err != nil {
			return nil, err
		}
		from, to, err := rangeBounds(r, b.Samples())
		if err != nil {
			return nil, err
		}
		return Clip(b, from, to)
	case "crop":
		r, err := core.ParseCrop(v)
		if err != nil {
			return nil, err
		}
		return Crop(b, r.X, r.Y, r.W, r.H)
	default:
		return nil, fmt.Errorf("media: unknown region attribute %q", attrName)
	}
}

// rangeBounds extracts numeric from/to out of a parsed range, defaulting to
// [0, limit).
func rangeBounds(r core.Region, limit int64) (from, to int64, err error) {
	from, to = 0, limit
	if r.From.Kind() == attr.KindNumber {
		q, _ := r.From.AsNumber()
		from = q.Value
	}
	if r.To.Kind() == attr.KindNumber {
		q, _ := r.To.AsNumber()
		to = q.Value
	}
	return from, to, nil
}
