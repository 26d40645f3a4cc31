package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Meta is the training progress a checkpoint captures alongside the
// tensors: where the run was, under which membership, and the seed that
// reproduces its data schedule.
type Meta struct {
	// Step is the number of completed training steps the state
	// reflects (the state is the post-optimizer-update state of step
	// Step-1; the next step to execute is Step).
	Step int64 `json:"step"`
	// Generation is the elastic generation the checkpoint was taken
	// under (0 for non-elastic runs).
	Generation int `json:"generation"`
	// World is the world size at capture time. Restore does not require
	// the restoring world to match — shards reassemble into the full
	// replicated state regardless.
	World int `json:"world"`
	// Seed is the run's base RNG seed, recorded verbatim for the
	// caller: a resumed run whose data schedule depends on it reads it
	// back (elastic exposes it via Agent.RestoredCheckpoint) — the
	// checkpoint layer itself never interprets it.
	Seed int64 `json:"seed"`
}

// blobMagic opens every FormatVersion 2 state blob. FormatVersion 1
// blobs are gob images, which start with a gob message length (0x2f for
// image) instead, so the magic tells the two apart.
var blobMagic = [8]byte{'D', 'D', 'P', 'S', 'T', 'A', 'T', '2'}

// blobHeaderLen is the fixed blob prefix: magic, the four Meta fields
// as int64s, and the optimizer state's element count.
const blobHeaderLen = 8 + 4*8 + 8

// noOptState is the optimizer element count recorded when the
// optimizer does not implement optim.StateFlattener.
const noOptState = math.MaxUint64

// image is the gob-encoded content of a FormatVersion 1 state blob,
// kept only to read such blobs.
type image struct {
	Meta Meta
	// Model is the nn.SaveState encoding of parameters and buffers,
	// carrying its own format-version header.
	Model []byte
	// Opt is the optimizer's flattened state (nil when the optimizer
	// does not implement optim.StateFlattener).
	Opt []float32
}

// Snapshot is an immutable byte image of full training state, taken
// synchronously on the training path and safe to persist from a
// background goroutine afterwards: Capture deep-copies every tensor, so
// subsequent optimizer updates cannot tear the image.
type Snapshot struct {
	// Meta duplicates the blob's embedded progress record for cheap
	// access (choosing file names, logging) without decoding the blob.
	Meta Meta
	blob []byte
}

// Capture serializes the full training state — meta, optimizer state
// (via optim.StateFlattener, when implemented) and model parameters and
// buffers (via nn.AppendState) — into a Snapshot: one encode pass into
// one exactly-sized blob. Every rank holds bit-identical state (DDP's
// invariant) and the encoding is a fixed little-endian layout, so every
// rank produces a byte-identical blob — which is what lets each rank
// persist only its slice of it.
func Capture(model nn.Module, opt optim.Optimizer, meta Meta) (*Snapshot, error) {
	var flat []float32
	count := uint64(noOptState)
	if sf, ok := opt.(optim.StateFlattener); ok && opt != nil {
		flat = sf.FlatState()
		count = uint64(len(flat))
	}
	blob := make([]byte, 0, blobHeaderLen+4*len(flat)+nn.StateSize(model))
	blob = append(blob, blobMagic[:]...)
	le := binary.LittleEndian
	for _, v := range []int64{meta.Step, int64(meta.Generation), int64(meta.World), meta.Seed} {
		blob = le.AppendUint64(blob, uint64(v))
	}
	blob = le.AppendUint64(blob, count)
	blob = nn.AppendFloat32s(blob, flat)
	blob = nn.AppendState(blob, model)
	return &Snapshot{Meta: meta, blob: blob}, nil
}

// Bytes returns the snapshot's state blob. The caller must not mutate
// it.
func (s *Snapshot) Bytes() []byte { return s.blob }

// blobParts is a FormatVersion 2 blob split into its sections.
type blobParts struct {
	meta Meta
	// opt is the optimizer state's raw little-endian floats; nil
	// when the blob records no optimizer state, and empty but non-nil
	// (a subslice of the blob) when it records zero elements.
	opt []byte
	// model is the nn state stream.
	model []byte
}

// splitBlob parses the fixed header of a FormatVersion 2 blob in O(1),
// checking every field against the bytes it claims.
func splitBlob(blob []byte) (blobParts, error) {
	var p blobParts
	if len(blob) < blobHeaderLen {
		return p, fmt.Errorf("ckpt: state blob truncated: %d bytes", len(blob))
	}
	le := binary.LittleEndian
	p.meta = Meta{
		Step:       int64(le.Uint64(blob[8:])),
		Generation: int(int64(le.Uint64(blob[16:]))),
		World:      int(int64(le.Uint64(blob[24:]))),
		Seed:       int64(le.Uint64(blob[32:])),
	}
	rest := blob[blobHeaderLen:]
	if count := le.Uint64(blob[40:]); count != noOptState {
		if count > uint64(len(rest))/4 {
			return p, fmt.Errorf("ckpt: state blob claims %d optimizer elements, %d bytes remain", count, len(rest))
		}
		p.opt, rest = rest[:4*count], rest[4*count:]
	}
	p.model = rest
	return p, nil
}

// decodeSnapshot parses a reassembled state blob: the fixed header of a
// FormatVersion 2 blob, or the whole gob image of a FormatVersion 1
// one.
func decodeSnapshot(blob []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(blob, blobMagic[:]) {
		img, err := decodeImage(blob)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Meta: img.Meta, blob: blob}, nil
	}
	p, err := splitBlob(blob)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Meta: p.meta, blob: blob}, nil
}

// decodeImage decodes a FormatVersion 1 blob.
func decodeImage(blob []byte) (*image, error) {
	var img image
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&img); err != nil {
		return nil, fmt.Errorf("ckpt: decoding snapshot: %w", err)
	}
	return &img, nil
}

// Apply restores the snapshot's state into model and opt (bitwise: a
// restored replica is indistinguishable from one that never crashed)
// and returns the captured progress. The model must have the
// architecture the checkpoint was taken from; mismatches are reported
// by parameter name with both shapes.
func (s *Snapshot) Apply(model nn.Module, opt optim.Optimizer) (Meta, error) {
	var (
		meta  Meta
		state []byte
		flat  []float32
	)
	if bytes.HasPrefix(s.blob, blobMagic[:]) {
		p, err := splitBlob(s.blob)
		if err != nil {
			return Meta{}, err
		}
		meta, state = p.meta, p.model
		if p.opt != nil {
			flat = make([]float32, len(p.opt)/4)
			nn.DecodeFloat32s(flat, p.opt)
		}
	} else {
		img, err := decodeImage(s.blob)
		if err != nil {
			return Meta{}, err
		}
		meta, state, flat = img.Meta, img.Model, img.Opt
	}
	if err := nn.LoadStateBytes(state, model); err != nil {
		return Meta{}, fmt.Errorf("ckpt: restoring model state: %w", err)
	}
	if sf, ok := opt.(optim.StateFlattener); ok && opt != nil && flat != nil {
		if err := sf.SetFlatState(flat); err != nil {
			return Meta{}, fmt.Errorf("ckpt: restoring optimizer state: %w", err)
		}
	}
	return meta, nil
}

// ShardRange returns the byte range [offset, offset+length) of the
// state blob that rank persists in a world of the given size: a
// contiguous split as even as possible, with the remainder spread over
// the lowest ranks. Pure function — every rank computes every rank's
// range, and readers of any world size recompute the saved layout from
// the manifest alone.
func ShardRange(blobLen int64, rank, world int) (offset, length int64) {
	if world <= 0 {
		panic(fmt.Sprintf("ckpt: invalid world %d", world))
	}
	base := blobLen / int64(world)
	rem := blobLen % int64(world)
	r := int64(rank)
	offset = base*r + min(r, rem)
	length = base
	if r < rem {
		length++
	}
	return offset, length
}
