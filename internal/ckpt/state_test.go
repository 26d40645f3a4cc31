package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

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

// firstBitDiff returns the first index at which a and b differ bitwise,
// or -1 when they are identical.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestCaptureApplyPreservesEveryBit(t *testing.T) {
	m, opt := newTestState(t, 1)
	params := m.Parameters()[0].Value.Data()
	flat := opt.FlatState()
	for i, bits := range specialFloatBits {
		params[i] = math.Float32frombits(bits)
		flat[len(flat)-1-i] = math.Float32frombits(bits)
	}
	if err := opt.SetFlatState(flat); err != nil {
		t.Fatal(err)
	}
	snap := captureTest(t, m, opt, Meta{Step: 3, World: 2})

	m2, opt2 := newTestState(t, 2)
	if _, err := snap.Apply(m2, opt2); err != nil {
		t.Fatal(err)
	}
	if at := firstBitDiff(paramsOf(m2), paramsOf(m)); at >= 0 {
		t.Fatalf("parameter element %d: restored bits %#08x, captured %#08x",
			at, math.Float32bits(paramsOf(m2)[at]), math.Float32bits(paramsOf(m)[at]))
	}
	if at := firstBitDiff(opt2.FlatState(), opt.FlatState()); at >= 0 {
		t.Fatalf("momentum element %d: restored bits %#08x, captured %#08x",
			at, math.Float32bits(opt2.FlatState()[at]), math.Float32bits(opt.FlatState()[at]))
	}
}

func TestStateBlobLayout(t *testing.T) {
	m, opt := newTestState(t, 1)
	meta := Meta{Step: 7, Generation: -2, World: 3, Seed: -42}
	var state bytes.Buffer
	if err := nn.SaveState(&state, m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  optim.Optimizer
		flat []float32
	}{
		{"sgd", opt, opt.FlatState()},
		{"no flattener", nil, nil},
	} {
		want := append([]byte(nil), "DDPSTAT2"...)
		for _, v := range []int64{7, -2, 3, -42} {
			want = binary.LittleEndian.AppendUint64(want, uint64(v))
		}
		count := uint64(math.MaxUint64)
		if tc.flat != nil {
			count = uint64(len(tc.flat))
		}
		want = binary.LittleEndian.AppendUint64(want, count)
		for _, v := range tc.flat {
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
		}
		want = append(want, state.Bytes()...)
		snap := captureTest(t, m, tc.opt, meta)
		if !bytes.Equal(snap.Bytes(), want) {
			t.Fatalf("%s: blob differs from the documented layout", tc.name)
		}
		if cap(snap.Bytes()) != len(want) {
			t.Fatalf("%s: blob capacity %d, length %d", tc.name, cap(snap.Bytes()), len(want))
		}
		got, err := decodeSnapshot(snap.Bytes())
		if err != nil || got.Meta != meta {
			t.Fatalf("%s: decoded meta %+v (err %v), want %+v", tc.name, got, err, meta)
		}
	}
}

// legacyStateDict and legacyStateEntry mirror the nn package's gob
// state dict: gob matches fields by name, so this encodes what
// StateFormatVersion 1 wrote.
type legacyStateEntry struct {
	Name  string
	Shape []int
	Data  []float32
}

type legacyStateDict struct {
	Params  []legacyStateEntry
	Buffers []legacyStateEntry
}

// legacyBlob builds a FormatVersion 1 state blob with the encoder that
// wrote it: a gob image whose Model is a version 1 nn state stream.
func legacyBlob(t testing.TB, m nn.Module, opt optim.StateFlattener, meta Meta) []byte {
	t.Helper()
	var sd legacyStateDict
	for _, p := range m.Parameters() {
		sd.Params = append(sd.Params, legacyStateEntry{Name: p.Name, Shape: p.Value.Shape(), Data: p.Value.Data()})
	}
	for _, b := range m.Buffers() {
		sd.Buffers = append(sd.Buffers, legacyStateEntry{Name: b.Name, Shape: b.Data.Shape(), Data: b.Data.Data()})
	}
	model := bytes.NewBufferString("GONNSD01\x01\x00\x00\x00")
	if err := gob.NewEncoder(model).Encode(&sd); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&image{Meta: meta, Model: model.Bytes(), Opt: opt.FlatState()}); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}

func TestFormatVersion1BlobRestoresBitwise(t *testing.T) {
	m, opt := newTestState(t, 5)
	meta := Meta{Step: 12, Generation: 1, World: 2, Seed: 9}
	blob := legacyBlob(t, m, opt, meta)

	check := func(how string, snap *Snapshot) {
		t.Helper()
		m2, opt2 := newTestState(t, 6)
		got, err := snap.Apply(m2, opt2)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if got != meta || snap.Meta != meta {
			t.Fatalf("%s: meta %+v / %+v, want %+v", how, got, snap.Meta, meta)
		}
		if at := firstBitDiff(paramsOf(m2), paramsOf(m)); at >= 0 {
			t.Fatalf("%s: parameter element %d differs", how, at)
		}
		if at := firstBitDiff(opt2.FlatState(), opt.FlatState()); at >= 0 {
			t.Fatalf("%s: momentum element %d differs", how, at)
		}
	}

	snap, err := decodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	check("Snapshot.Apply", snap)

	// The same blob as a FormatVersion 1 checkpoint on disk: shards and
	// manifest both carry version 1.
	dir := t.TempDir()
	ref := Manifest{Version: 1, Meta: meta, World: 2, BlobBytes: int64(len(blob))}
	for r := 0; r < 2; r++ {
		off, n := ShardRange(int64(len(blob)), r, 2)
		name, err := writeShardFile(dir, shardHeader{
			Version: 1, Generation: int64(meta.Generation), Step: meta.Step,
			World: 2, Rank: uint32(r), Offset: uint64(off), Length: uint64(n),
		}, blob[off:off+n])
		if err != nil {
			t.Fatal(err)
		}
		ref.Shards = append(ref.Shards, ShardRef{File: name, Rank: r, Offset: off, Length: n, FileSize: shardFileSize(n)})
	}
	enc, err := encodeManifest(&ref)
	if err != nil {
		t.Fatal(err)
	}
	name := manifestFileName(meta.Generation, meta.Step)
	if err := writeFileAtomic(dir, name, enc); err != nil {
		t.Fatal(err)
	}
	snap, _, err = loadOne(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	check("loadOne", snap)
}

func TestCaptureAllocatesOnlyTheBlob(t *testing.T) {
	m := models.NewMLP(1, 64, 256, 10)
	opt := optim.NewSGD(m.Parameters(), 0.1)
	opt.Momentum = 0.9
	const slack = 16 << 10 // parameter lists, the Snapshot, small headers
	flatBytes := uint64(4 * len(opt.FlatState()))
	captureTest(t, m, opt, Meta{}) // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := captureTest(t, m, opt, Meta{Step: 1})
	runtime.ReadMemStats(&after)
	blob := uint64(len(snap.Bytes()))
	if got := after.TotalAlloc - before.TotalAlloc; got > blob+flatBytes+slack {
		t.Fatalf("Capture allocated %d bytes; blob %d + FlatState %d + %d slack", got, blob, flatBytes, slack)
	}
}

// benchState is the perfbench MLP size: eight 512x512 linear layers
// with SGD momentum.
func benchState() (nn.Module, *optim.SGD) {
	rng := rand.New(rand.NewSource(1))
	seq := nn.NewSequential()
	for l := 0; l < 8; l++ {
		seq.Append(nn.NewLinear(rng, fmt.Sprintf("fc%d", l), 512, 512))
	}
	opt := optim.NewSGD(seq.Parameters(), 0.1)
	opt.Momentum = 0.9
	for _, p := range seq.Parameters() {
		p.Grad = tensor.Ones(p.Value.Shape()...)
	}
	opt.Step()
	return seq, opt
}

func BenchmarkCapture(b *testing.B) {
	m, opt := benchState()
	b.SetBytes(int64(len(captureTest(b, m, opt, Meta{}).Bytes())))
	b.ReportAllocs()
	for b.Loop() {
		captureTest(b, m, opt, Meta{Step: 1})
	}
}

func BenchmarkApply(b *testing.B) {
	m, opt := benchState()
	snap := captureTest(b, m, opt, Meta{Step: 1})
	b.SetBytes(int64(len(snap.Bytes())))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := snap.Apply(m, opt); err != nil {
			b.Fatal(err)
		}
	}
}
