package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func checkpointModel(seed int64) Module {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewLinear(rng, "fc1", 4, 6),
		NewBatchNorm("bn", 6),
		ReLU{},
		NewLinear(rng, "fc2", 6, 2),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := checkpointModel(1)
	// Mutate buffers so the round trip covers them.
	src.Forward(autograd.Constant(tensor.Ones(3, 4)))

	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := checkpointModel(2) // different init
	if err := LoadState(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst.Parameters() {
		if !p.Value.Equal(src.Parameters()[i].Value) {
			t.Fatalf("parameter %s not restored", p.Name)
		}
	}
	for i, b := range dst.Buffers() {
		if !b.Data.Equal(src.Buffers()[i].Data) {
			t.Fatalf("buffer %s not restored", b.Name)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	wrongShape := NewSequential(
		NewLinear(rng, "fc1", 4, 8), // different width
		NewBatchNorm("bn", 8),
		ReLU{},
		NewLinear(rng, "fc2", 8, 2),
	)
	if err := LoadState(&buf, wrongShape); err == nil {
		t.Fatal("mismatched shapes must be rejected")
	}

	buf.Reset()
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	wrongNames := NewSequential(
		NewLinear(rng, "other", 4, 6),
		NewBatchNorm("bn", 6),
		ReLU{},
		NewLinear(rng, "fc2", 6, 2),
	)
	err := LoadState(&buf, wrongNames)
	if err == nil || !strings.Contains(err.Error(), "other") {
		t.Fatalf("mismatched names must be rejected with detail, got %v", err)
	}
}

func TestLoadReportsMismatchedShapeByName(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	wrongShape := NewSequential(
		NewLinear(rng, "fc1", 4, 8), // widened: fc1's tensors change shape
		NewBatchNorm("bn", 8),
		ReLU{},
		NewLinear(rng, "fc2", 8, 2),
	)
	err := LoadState(&buf, wrongShape)
	if err == nil {
		t.Fatal("mismatched shapes must be rejected")
	}
	// The error must identify the offending entry and both shapes, not
	// just say "mismatch".
	for _, want := range []string{"fc1", "[4 6]", "[4 8]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("shape mismatch error %q does not mention %q", err, want)
		}
	}
}

func TestSaveStateWritesVersionHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, checkpointModel(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 12 || string(raw[:8]) != "GONNSD01" {
		t.Fatalf("stream does not start with the state magic: % x", raw[:12])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != StateFormatVersion {
		t.Fatalf("header version %d, want %d", v, StateFormatVersion)
	}
}

func TestLoadStateAcceptsLegacyHeaderlessStream(t *testing.T) {
	src := checkpointModel(1)
	legacy := gobState(t, src) // the pre-version encoding: gob, no header
	dst := checkpointModel(2)
	if err := LoadState(bytes.NewReader(legacy), dst); err != nil {
		t.Fatalf("legacy stream rejected: %v", err)
	}
	for i, p := range dst.Parameters() {
		if !p.Value.Equal(src.Parameters()[i].Value) {
			t.Fatalf("parameter %s not restored from legacy stream", p.Name)
		}
	}
}

// gobState is the encoding SaveState wrote before StateFormatVersion 2:
// m's stateDict gob-encoded, without a header.
func gobState(t *testing.T, m Module) []byte {
	t.Helper()
	var sd stateDict
	for _, p := range m.Parameters() {
		sd.Params = append(sd.Params, stateEntry{Name: p.Name, Shape: p.Value.Shape(), Data: p.Value.Data()})
	}
	for _, b := range m.Buffers() {
		sd.Buffers = append(sd.Buffers, stateEntry{Name: b.Name, Shape: b.Data.Shape(), Data: b.Data.Data()})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sd); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadStateAcceptsVersion1Stream(t *testing.T) {
	src := checkpointModel(1)
	src.Forward(autograd.Constant(tensor.Ones(3, 4))) // non-trivial buffers
	v1 := append([]byte("GONNSD01\x01\x00\x00\x00"), gobState(t, src)...)
	dst := checkpointModel(2)
	if err := LoadState(bytes.NewReader(v1), dst); err != nil {
		t.Fatalf("version 1 stream rejected: %v", err)
	}
	for i, p := range dst.Parameters() {
		if !p.Value.Equal(src.Parameters()[i].Value) {
			t.Fatalf("parameter %s not restored from version 1 stream", p.Name)
		}
	}
	for i, b := range dst.Buffers() {
		if !b.Data.Equal(src.Buffers()[i].Data) {
			t.Fatalf("buffer %s not restored from version 1 stream", b.Name)
		}
	}
}

// specialFloatBits are float32 bit patterns a lossy encoding would
// change: a signaling NaN, NaNs with payloads, -0, ±Inf and subnormals.
var specialFloatBits = []uint32{
	0x7f800001, // signaling NaN
	0x7fc12345, // quiet NaN with a payload
	0xffa00001, // negative signaling NaN with a payload
	0x80000000, // -0
	0x7f800000, // +Inf
	0xff800000, // -Inf
	0x00000001, // smallest subnormal
	0x807fffff, // largest negative subnormal
}

func TestSaveLoadPreservesEveryBit(t *testing.T) {
	src := checkpointModel(1)
	data := src.Parameters()[0].Value.Data()
	for i, bits := range specialFloatBits {
		data[i] = math.Float32frombits(bits)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := checkpointModel(2)
	if err := LoadState(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst.Parameters() {
		want := src.Parameters()[i].Value.Data()
		for j, v := range p.Value.Data() {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("parameter %s[%d]: restored bits %#08x, saved %#08x", p.Name, j, math.Float32bits(v), math.Float32bits(want[j]))
			}
		}
	}
}

func TestStateStreamLayout(t *testing.T) {
	// One parameter "w" of shape [1 2] holding {1, -2}, one buffer "b"
	// of shape [1] holding {0.5}.
	w := tensor.FromSlice([]float32{1, -2}, 1, 2)
	b := tensor.FromSlice([]float32{0.5}, 1)
	m := layoutModule{w: NewParameter("w", w), b: &Buffer{Name: "b", Data: b}}
	want := []byte("GONNSD01")
	want = binary.LittleEndian.AppendUint32(want, 2) // version
	want = binary.LittleEndian.AppendUint32(want, 1) // parameters
	want = append(want, 1, 0, 0, 0, 'w', 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0)
	want = binary.LittleEndian.AppendUint64(want, 2)
	want = binary.LittleEndian.AppendUint32(want, math.Float32bits(1))
	want = binary.LittleEndian.AppendUint32(want, math.Float32bits(-2))
	want = binary.LittleEndian.AppendUint32(want, 1) // buffers
	want = append(want, 1, 0, 0, 0, 'b', 1, 0, 0, 0, 1, 0, 0, 0)
	want = binary.LittleEndian.AppendUint64(want, 1)
	want = binary.LittleEndian.AppendUint32(want, math.Float32bits(0.5))
	var buf bytes.Buffer
	if err := SaveState(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream\n% x\nwant\n% x", buf.Bytes(), want)
	}
	if n := StateSize(m); n != len(want) {
		t.Fatalf("StateSize %d, stream is %d bytes", n, len(want))
	}
}

// layoutModule is a fixed module with one parameter and one buffer.
type layoutModule struct {
	w *Parameter
	b *Buffer
}

func (l layoutModule) Forward(x *autograd.Variable) *autograd.Variable { return x }
func (l layoutModule) Parameters() []*Parameter                        { return []*Parameter{l.w} }
func (l layoutModule) Buffers() []*Buffer                              { return []*Buffer{l.b} }
func (l layoutModule) SetTraining(bool)                                {}

func TestLoadStateRejectsNewerFormatVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, checkpointModel(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], StateFormatVersion+1)
	err := LoadState(bytes.NewReader(raw), checkpointModel(2))
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version stream must be rejected loudly, got %v", err)
	}
}

func TestLoadRejectsWrongParameterCount(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	small := NewLinear(rand.New(rand.NewSource(4)), "fc1", 4, 6)
	if err := LoadState(&buf, small); err == nil {
		t.Fatal("wrong parameter count must be rejected")
	}
}

func TestLoadIsAtomicOnValidationFailure(t *testing.T) {
	// A failed load must not partially overwrite the destination.
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dst := NewSequential(
		NewLinear(rng, "fc1", 4, 6), // matches
		NewBatchNorm("bn", 6),       // matches
		ReLU{},
		NewLinear(rng, "zzz", 6, 2), // name mismatch at the end
	)
	before := dst.Parameters()[0].Value.Clone()
	if err := LoadState(&buf, dst); err == nil {
		t.Fatal("expected validation error")
	}
	if !dst.Parameters()[0].Value.Equal(before) {
		t.Fatal("failed load partially overwrote the model")
	}
}

func TestResumeTrainingFromCheckpoint(t *testing.T) {
	// Train, checkpoint, keep training; separately restore and continue
	// — both continuations must match exactly.
	rng := rand.New(rand.NewSource(6))
	x := autograd.Constant(tensor.RandN(rng, 1, 5, 4))
	y := autograd.Constant(tensor.RandN(rng, 1, 5, 2))
	m := checkpointModel(7)
	step := func(mod Module) {
		ZeroGrad(mod)
		out := mod.Forward(x)
		autograd.Backward(autograd.MSELoss(out, y), nil)
		for _, p := range mod.Parameters() {
			tensor.AxpyInPlace(p.Value, -0.05, p.Grad)
		}
	}
	step(m)
	var ckpt bytes.Buffer
	if err := SaveState(&ckpt, m); err != nil {
		t.Fatal(err)
	}
	step(m) // continue original

	restored := checkpointModel(8)
	if err := LoadState(&ckpt, restored); err != nil {
		t.Fatal(err)
	}
	step(restored) // continue restored

	for i, p := range restored.Parameters() {
		if !p.Value.Equal(m.Parameters()[i].Value) {
			t.Fatalf("resumed training diverged at parameter %s", p.Name)
		}
	}
}

func TestFloat32CodecPortableLoopsMatchHost(t *testing.T) {
	// The portable loops run only on big-endian hosts; check them
	// against the codec this host uses, on every special bit pattern.
	src := []float32{1, -2.5, 3e-39}
	for _, bits := range specialFloatBits {
		src = append(src, math.Float32frombits(bits))
	}
	want := AppendFloat32s([]byte{0xaa}, src)
	got := make([]byte, 4*len(src))
	putFloat32s(got, src)
	if !bytes.Equal(got, want[1:]) {
		t.Fatalf("putFloat32s\n% x\nAppendFloat32s\n% x", got, want[1:])
	}
	for i, v := range src {
		if b := binary.LittleEndian.Uint32(got[4*i:]); b != math.Float32bits(v) {
			t.Fatalf("element %d encoded as %#08x, want little-endian %#08x", i, b, math.Float32bits(v))
		}
	}
	back, host := make([]float32, len(src)), make([]float32, len(src))
	getFloat32s(back, got)
	DecodeFloat32s(host, got)
	for i := range src {
		if math.Float32bits(back[i]) != math.Float32bits(src[i]) || math.Float32bits(host[i]) != math.Float32bits(src[i]) {
			t.Fatalf("element %d decoded as %#08x (portable) / %#08x (host), want %#08x",
				i, math.Float32bits(back[i]), math.Float32bits(host[i]), math.Float32bits(src[i]))
		}
	}
}
