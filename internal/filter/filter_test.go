package filter

import (
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/units"
)

// fixture builds a news-like document plus a store with real synthetic
// blocks: big video, audio, image, text caption.
func fixture(t *testing.T) (*core.Document, *media.Store) {
	t.Helper()
	store := media.NewStore()
	video := media.CaptureVideo("scene.vid", 4, 1600, 1200, 50, 1)
	audio := media.CaptureAudio("voice.aud", 1000, 8000, 440, 2)
	img := media.CaptureImage("painting.img", 800, 600, 3)
	store.Put(video)
	store.Put(audio)
	store.Put(img)

	root := core.NewPar().SetName("news")
	root.Add(
		core.NewExt().SetName("scene").
			SetAttr("channel", attr.ID("video")).
			SetAttr("file", attr.String("scene.vid")).
			SetAttr("duration", attr.Quantity(units.MS(1000))),
		core.NewExt().SetName("voice").
			SetAttr("channel", attr.ID("sound")).
			SetAttr("file", attr.String("voice.aud")).
			SetAttr("duration", attr.Quantity(units.MS(1000))),
		core.NewExt().SetName("painting").
			SetAttr("channel", attr.ID("graphic")).
			SetAttr("file", attr.String("painting.img")).
			SetAttr("duration", attr.Quantity(units.MS(800))),
		core.NewImm([]byte("Gestolen van Goghs...")).SetName("cap").
			SetAttr("channel", attr.ID("captions")).
			SetAttr("duration", attr.Quantity(units.MS(600))),
	)
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	cd := core.NewChannelDict()
	cd.Define(core.Channel{Name: "video", Medium: core.MediumVideo, Rates: units.Rates{FrameRate: 50}})
	cd.Define(core.Channel{Name: "sound", Medium: core.MediumAudio, Rates: units.Rates{SampleRate: 8000}})
	cd.Define(core.Channel{Name: "graphic", Medium: core.MediumImage})
	cd.Define(core.Channel{Name: "captions", Medium: core.MediumText})
	d.SetChannels(cd)
	return d, store
}

func TestWorkstationTransforms(t *testing.T) {
	d, store := fixture(t)
	fm, err := Evaluate(d, store, Workstation1991)
	if err != nil {
		t.Fatal(err)
	}
	if !fm.Supportable() {
		t.Fatalf("workstation cannot support the news:\n%s", fm)
	}
	pass, transform, drop := fm.Counts()
	if drop != 0 {
		t.Errorf("drops on workstation: %d", drop)
	}
	// 1600x1200@50fps video needs downres (to 800x600) and subsample (to 25).
	var sceneDec *Decision
	for i := range fm.Decisions {
		if fm.Decisions[i].Node.Name() == "scene" {
			sceneDec = &fm.Decisions[i]
		}
	}
	if sceneDec == nil || sceneDec.Action != Transform {
		t.Fatalf("scene decision = %+v", sceneDec)
	}
	kinds := map[TransformKind]int64{}
	for _, tr := range sceneDec.Transforms {
		kinds[tr.Kind] = tr.Param
	}
	if kinds[Downres] != 1 {
		t.Errorf("scene downres = %d, want 1 halving", kinds[Downres])
	}
	if kinds[Subsample] != 2 {
		t.Errorf("scene subsample = %d, want 2", kinds[Subsample])
	}
	if pass == 0 || transform == 0 {
		t.Errorf("counts: pass=%d transform=%d", pass, transform)
	}
}

func TestTextTerminalDropsContinuousMedia(t *testing.T) {
	d, store := fixture(t)
	fm, err := Evaluate(d, store, TextTerminal)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Supportable() {
		t.Error("terminal claims to support video")
	}
	_, _, drop := fm.Counts()
	if drop != 3 { // video, audio, image dropped; caption passes
		t.Errorf("drops = %d, want 3\n%s", drop, fm)
	}
	for _, dec := range fm.Decisions {
		if dec.Node.Name() == "cap" && dec.Action != Pass {
			t.Errorf("caption decision = %+v", dec)
		}
	}
}

func TestApplyRealizesTransforms(t *testing.T) {
	d, store := fixture(t)
	fm, err := Evaluate(d, store, Workstation1991)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Apply(fm, store)
	if err != nil {
		t.Fatal(err)
	}
	scene, ok := out.GetByName("scene.vid")
	if !ok {
		t.Fatal("transformed scene missing")
	}
	if scene.Width() != 800 || scene.Height() != 600 {
		t.Errorf("scene = %dx%d", scene.Width(), scene.Height())
	}
	if rate, _ := scene.Descriptor.GetInt(media.DescFrameRate); rate != 25 {
		t.Errorf("scene rate = %d", rate)
	}
	// Transformed payload is smaller.
	orig, _ := store.GetByName("scene.vid")
	if len(scene.Payload) >= len(orig.Payload) {
		t.Errorf("transform did not shrink payload: %d vs %d",
			len(scene.Payload), len(orig.Payload))
	}
	// Untransformed audio passes through unchanged.
	voice, ok := out.GetByName("voice.aud")
	if !ok || voice.ID == "" {
		t.Fatal("voice missing")
	}
	origVoice, _ := store.GetByName("voice.aud")
	if voice.ID != origVoice.ID {
		t.Error("pass-through block changed")
	}
	// The transformed scene was never hashed, so no address reaches it.
	if scene.ID != "" {
		t.Errorf("transformed scene named %.12s", scene.ID)
	}
	if _, ok := out.Get(scene.Address()); ok {
		t.Error("transformed scene reachable by the address of its bytes")
	}
}

func TestBandwidthVerdict(t *testing.T) {
	d, store := fixture(t)
	tight := Profile{Name: "tight", BandwidthBytesPerSec: 1024}
	fm, err := Evaluate(d, store, tight)
	if err != nil {
		t.Fatal(err)
	}
	if fm.BandwidthOK || fm.Supportable() {
		t.Errorf("1KB/s device claims support (needs %d B/s)", fm.BandwidthNeeded)
	}
	roomy := Profile{Name: "roomy", BandwidthBytesPerSec: 1 << 30}
	fm2, err := Evaluate(d, store, roomy)
	if err != nil {
		t.Fatal(err)
	}
	if !fm2.BandwidthOK || !fm2.Supportable() {
		t.Errorf("1GB/s device refuses support (needs %d B/s)", fm2.BandwidthNeeded)
	}
}

func TestMissingDescriptorDrops(t *testing.T) {
	d, store := fixture(t)
	ghost := core.NewExt().SetName("ghost").
		SetAttr("channel", attr.ID("video")).
		SetAttr("file", attr.String("missing.vid"))
	d.Root.AddChild(ghost)
	fm, err := Evaluate(d, store, Workstation1991)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Supportable() {
		t.Error("document with missing descriptor claimed supportable")
	}
	found := false
	for _, dec := range fm.Decisions {
		if dec.Node == ghost && dec.Action == Drop &&
			strings.Contains(dec.Reason, "missing.vid") {
			found = true
		}
	}
	if !found {
		t.Errorf("ghost not dropped:\n%s", fm)
	}
}

func TestExtWithoutFileDrops(t *testing.T) {
	d, store := fixture(t)
	bare := core.NewExt().SetName("bare").SetAttr("channel", attr.ID("video"))
	d.Root.AddChild(bare)
	fm, err := Evaluate(d, store, Workstation1991)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Supportable() {
		t.Error("file-less ext claimed supportable")
	}
}

func TestImmMediumAttribute(t *testing.T) {
	d, store := fixture(t)
	// An immediate node carrying audio on a terminal: dropped.
	beep := core.NewImm([]byte{1, 2, 3}).SetName("beep").
		SetAttr("channel", attr.ID("captions")).
		SetAttr("medium", attr.ID("audio"))
	d.Root.AddChild(beep)
	fm, err := Evaluate(d, store, TextTerminal)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for _, dec := range fm.Decisions {
		if dec.Node == beep && dec.Action == Drop {
			dropped = true
		}
	}
	if !dropped {
		t.Error("audio imm node not dropped on terminal")
	}
}

func TestProfileSupports(t *testing.T) {
	if !Workstation1991.Supports(core.MediumVideo) {
		t.Error("unrestricted profile rejects video")
	}
	if TextTerminal.Supports(core.MediumVideo) {
		t.Error("terminal supports video")
	}
	if !TextTerminal.Supports(core.MediumText) {
		t.Error("terminal rejects text")
	}
}

func TestFilterMapString(t *testing.T) {
	d, store := fixture(t)
	fm, err := Evaluate(d, store, Laptop1991)
	if err != nil {
		t.Fatal(err)
	}
	s := fm.String()
	for _, want := range []string{"laptop", "supportable", "B/s"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestTransformSpecStrings(t *testing.T) {
	if (TransformSpec{Kind: Quantize, Param: 4}).String() != "quantize(4)" {
		t.Error("TransformSpec.String broken")
	}
	for _, k := range []TransformKind{Quantize, Downres, Subsample} {
		if k.String() == "" {
			t.Error("empty TransformKind string")
		}
	}
	for _, a := range []Action{Pass, Transform, Drop} {
		if a.String() == "" {
			t.Error("empty Action string")
		}
	}
}

func TestEvaluatePlanNeedsPlanUnderCap(t *testing.T) {
	d, store := fixture(t)
	if _, err := EvaluatePlan(d, store, Laptop1991, nil); err == nil {
		t.Error("a bandwidth cap without a plan gave a verdict")
	}
	if _, err := EvaluatePlan(d, store, Workstation1991, nil); err != nil {
		t.Errorf("no cap, no plan: %v", err)
	}
}

func TestBandwidthCountsPresentedLeaves(t *testing.T) {
	// The terminal drops the video, audio and image; with a cap, only the
	// caption it presents counts: 21 bytes over the 1s makespan.
	d, store := fixture(t)
	p := TextTerminal
	p.BandwidthBytesPerSec = 1 << 20
	fm, err := Evaluate(d, store, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("Gestolen van Goghs...")); fm.BandwidthNeeded != want {
		t.Errorf("BandwidthNeeded = %d, want %d (the caption alone)", fm.BandwidthNeeded, want)
	}
}
