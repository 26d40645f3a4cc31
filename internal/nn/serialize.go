package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/tensor"
)

// StateFormatVersion is the current version of SaveState's encoding.
// SaveState writes it in a fixed header ahead of the payload so
// downstream formats that embed state dicts (the ckpt package's
// manifests and shards) can evolve the encoding without guessing;
// LoadState rejects streams written by a newer version and transparently
// accepts older ones: version 1 (header, then gob) and headerless gob
// streams from before the header existed.
const StateFormatVersion = 2

// stateMagic identifies a SaveState stream ("GONNSD" + 2-digit header
// revision). Streams from before the header was introduced start with
// gob type-definition bytes instead and are detected by the mismatch.
var stateMagic = [8]byte{'G', 'O', 'N', 'N', 'S', 'D', '0', '1'}

// stateHeaderLen is the magic plus the little-endian uint32 version.
const stateHeaderLen = 12

// minEntryLen is the encoded size of an entry with an empty name, no
// dimensions and no elements: name length, rank and element count.
const minEntryLen = 4 + 4 + 8

var le = binary.LittleEndian

// stateEntry is one serialized tensor of a state dict.
type stateEntry struct {
	Name  string
	Shape []int
	Data  []float32
}

// stateDict is the decoded form of a module's learnable state —
// parameters and buffers, like PyTorch's state_dict. Buffers are
// included because DDP's correctness story covers them (BatchNorm
// running statistics must survive checkpoint/restore just as they
// survive the rank-0 broadcast). Version 1 and headerless streams are
// this struct gob-encoded.
type stateDict struct {
	Params  []stateEntry
	Buffers []stateEntry
}

// StateSize returns the exact length of m's SaveState stream.
func StateSize(m Module) int {
	n := stateHeaderLen + 4 + 4
	for _, p := range m.Parameters() {
		n += entrySize(p.Name, p.Value)
	}
	for _, b := range m.Buffers() {
		n += entrySize(b.Name, b.Data)
	}
	return n
}

func entrySize(name string, t *tensor.Tensor) int {
	return minEntryLen + len(name) + 4*len(t.Shape()) + 4*t.Size()
}

// AppendState appends m's SaveState stream to dst and returns the
// extended slice; with cap(dst)-len(dst) >= StateSize(m) it does not
// allocate.
func AppendState(dst []byte, m Module) []byte {
	dst = append(dst, stateMagic[:]...)
	dst = le.AppendUint32(dst, StateFormatVersion)
	params := m.Parameters()
	dst = le.AppendUint32(dst, uint32(len(params)))
	for _, p := range params {
		dst = appendEntry(dst, p.Name, p.Value)
	}
	buffers := m.Buffers()
	dst = le.AppendUint32(dst, uint32(len(buffers)))
	for _, b := range buffers {
		dst = appendEntry(dst, b.Name, b.Data)
	}
	return dst
}

func appendEntry(dst []byte, name string, t *tensor.Tensor) []byte {
	dst = le.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	shape := t.Shape()
	dst = le.AppendUint32(dst, uint32(len(shape)))
	for _, d := range shape {
		dst = le.AppendUint32(dst, uint32(d))
	}
	data := t.Data()
	dst = le.AppendUint64(dst, uint64(len(data)))
	return AppendFloat32s(dst, data)
}

// AppendFloat32s appends the IEEE-754 bits of src to dst, 4
// little-endian bytes per element, in one pass. Every bit survives,
// NaN payloads included.
func AppendFloat32s(dst []byte, src []float32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 4*len(src))[:n+4*len(src)]
	if hostLittleEndian {
		copy(dst[n:], float32Bytes(src))
	} else {
		putFloat32s(dst[n:], src)
	}
	return dst
}

// DecodeFloat32s fills dst from the little-endian float32 bits in src,
// the inverse of AppendFloat32s. src must hold at least 4*len(dst)
// bytes.
func DecodeFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if hostLittleEndian {
		copy(float32Bytes(dst), src)
	} else {
		getFloat32s(dst, src)
	}
}

// hostLittleEndian reports whether float32s in memory already have the
// stream's byte order. Then the codec copies them in bulk, which
// BenchmarkCapture shows is faster than the portable loops; elsewhere
// the portable loops run.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float32Bytes views f's memory as bytes, without copying.
func float32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

func putFloat32s(dst []byte, src []float32) {
	for i, v := range src {
		le.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func getFloat32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(le.Uint32(src[4*i:]))
	}
}

// SaveState writes m's parameters and buffers to w. The stream
// (StateFormatVersion 2) is, all integers little-endian:
//
//	magic "GONNSD01" (8) | version uint32 (4)
//	parameter count uint32, then one entry per parameter
//	buffer count uint32, then one entry per buffer
//
// and an entry is the name length uint32, the name bytes, the rank
// uint32, one uint32 per dimension, the element count uint64, and the
// raw float32 bits of every element (4 bytes each). The stream is
// byte-identical for bit-identical state. Typically only rank 0 saves:
// replicas are identical by DDP's guarantee.
func SaveState(w io.Writer, m Module) error {
	if _, err := w.Write(AppendState(make([]byte, 0, StateSize(m)), m)); err != nil {
		return fmt.Errorf("nn: writing state: %w", err)
	}
	return nil
}

// LoadState restores parameters and buffers saved by SaveState into m,
// validating names and shapes so a checkpoint cannot silently load into
// the wrong architecture; a mismatch reports which entry disagreed and
// both shapes. Nothing is written unless every entry validates. Version
// 1 streams and headerless streams written before StateFormatVersion
// existed load transparently; streams from a newer format version are
// rejected.
func LoadState(r io.Reader, m Module) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: reading state: %w", err)
	}
	return LoadStateBytes(raw, m)
}

// LoadStateBytes is LoadState on a stream already in memory.
func LoadStateBytes(raw []byte, m Module) error {
	sd, err := decodeState(raw)
	if err != nil {
		return err
	}
	params := m.Parameters()
	if len(params) != len(sd.Params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, model has %d", len(sd.Params), len(params))
	}
	for i, p := range params {
		if err := checkEntry(sd.Params[i], "parameter", p.Name, p.Value); err != nil {
			return err
		}
	}
	buffers := m.Buffers()
	if len(buffers) != len(sd.Buffers) {
		return fmt.Errorf("nn: checkpoint has %d buffers, model has %d", len(sd.Buffers), len(buffers))
	}
	for i, b := range buffers {
		if err := checkEntry(sd.Buffers[i], "buffer", b.Name, b.Data); err != nil {
			return err
		}
	}
	// Validation passed; commit.
	for i, p := range params {
		copy(p.Value.Data(), sd.Params[i].Data)
	}
	for i, b := range buffers {
		copy(b.Data.Data(), sd.Buffers[i].Data)
	}
	return nil
}

// decodeState parses a stream of any supported version.
func decodeState(raw []byte) (*stateDict, error) {
	if len(raw) < stateHeaderLen || !bytes.Equal(raw[:8], stateMagic[:]) {
		// No header: a legacy stream.
		return decodeGobState(raw)
	}
	switch v := le.Uint32(raw[8:]); {
	case v > StateFormatVersion:
		return nil, fmt.Errorf("nn: state format version %d is newer than supported %d", v, StateFormatVersion)
	case v < 2: // version 1: the header, then gob
		return decodeGobState(raw[stateHeaderLen:])
	}
	d := stateDecoder{buf: raw[stateHeaderLen:]}
	var sd stateDict
	sd.Params = d.entries()
	sd.Buffers = d.entries()
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, fmt.Errorf("nn: decoding state: %w", d.err)
	}
	return &sd, nil
}

// decodeGobState reads the gob encoding of version 1 and headerless
// streams. Writers no longer produce it.
func decodeGobState(raw []byte) (*stateDict, error) {
	var sd stateDict
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&sd); err != nil {
		return nil, fmt.Errorf("nn: decoding state: %w", err)
	}
	return &sd, nil
}

// stateDecoder reads a version 2 stream. Every count and length is
// checked against the bytes that remain before it sizes an allocation,
// so a corrupt stream fails with an error, never a panic or a huge
// allocation. The first error sticks and stops further reads.
type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes, or fails when fewer remain.
func (d *stateDecoder) take(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("truncated %s: need %d bytes, %d remain", what, n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *stateDecoder) u32(what string) uint32 {
	if b := d.take(4, what); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (d *stateDecoder) u64(what string) uint64 {
	if b := d.take(8, what); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (d *stateDecoder) entries() []stateEntry {
	n := d.u32("entry count")
	if d.err == nil && uint64(n)*minEntryLen > uint64(len(d.buf)) {
		d.fail("%d entries cannot fit in %d bytes", n, len(d.buf))
	}
	if d.err != nil {
		return nil
	}
	es := make([]stateEntry, n)
	for i := range es {
		e := &es[i]
		e.Name = string(d.take(uint64(d.u32("name length")), "name"))
		rank := d.u32("rank")
		dims := d.take(4*uint64(rank), "shape")
		e.Shape = make([]int, len(dims)/4)
		for j := range e.Shape {
			e.Shape[j] = int(le.Uint32(dims[4*j:]))
		}
		count := d.u64("element count")
		if d.err == nil && count > uint64(len(d.buf))/4 {
			d.fail("entry %q claims %d elements, %d bytes remain", e.Name, count, len(d.buf))
		}
		raw := d.take(4*count, "data")
		if d.err != nil {
			return nil
		}
		e.Data = make([]float32, count)
		DecodeFloat32s(e.Data, raw)
	}
	return es
}

// checkEntry validates one checkpoint entry against the model's tensor
// of the same position, naming the entry and both shapes on mismatch.
func checkEntry(e stateEntry, kind, name string, t *tensor.Tensor) error {
	if e.Name != name {
		return fmt.Errorf("nn: checkpoint %s %q does not match model %s %q", kind, e.Name, kind, name)
	}
	if !slices.Equal(e.Shape, t.Shape()) {
		return fmt.Errorf("nn: %s %q shape mismatch: checkpoint %v, model %v", kind, name, e.Shape, t.Shape())
	}
	if len(e.Data) != t.Size() {
		return fmt.Errorf("nn: %s %q has %d elements in checkpoint, %d in model (shape %v)", kind, name, len(e.Data), t.Size(), t.Shape())
	}
	return nil
}
