package ckpt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
)

// FuzzManifestLoad feeds arbitrary bytes to the two on-disk decoders.
// Checkpoint files are read back after crashes, partial writes, and
// version skew, so the decoders must reject any corruption with an
// error — never a panic or a silently wrong Manifest. On inputs that
// do decode, the manifest must survive an encode→decode round trip
// unchanged (the CRC and length framing are deterministic).
func FuzzManifestLoad(f *testing.F) {
	valid, err := encodeManifest(&Manifest{
		Version:   FormatVersion,
		Meta:      Meta{Step: 1200, Generation: 3, World: 4},
		World:     4,
		BlobBytes: 1 << 16,
		Shards: []ShardRef{
			{File: "shard-g3-s1200-r0of4.ddp", Rank: 0, Offset: 0, Length: 1 << 14},
			{File: "shard-g3-s1200-r1of4.ddp", Rank: 1, Offset: 1 << 14, Length: 1 << 14},
		},
	})
	if err != nil {
		f.Fatalf("encoding seed manifest: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])          // truncated CRC
	f.Add(append([]byte("DDPMANI1"), 0)) // magic only
	f.Add(encodeShardHeader(shardHeader{
		Version: FormatVersion, Generation: 3, Step: 1200,
		World: 4, Rank: 1, Offset: 1 << 14, Length: 1 << 14,
	}))
	// A well-formed frame claiming a future format version must be
	// rejected, not misread.
	future, err := encodeManifest(&Manifest{Version: FormatVersion + 1})
	if err != nil {
		f.Fatalf("encoding future-version seed: %v", err)
	}
	f.Add(future)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err == nil {
			if m == nil {
				t.Fatal("decodeManifest returned nil manifest and nil error")
			}
			if m.Version > FormatVersion {
				t.Fatalf("decodeManifest accepted future version %d", m.Version)
			}
			re, err := encodeManifest(m)
			if err != nil {
				t.Fatalf("re-encoding decoded manifest: %v", err)
			}
			m2, err := decodeManifest(re)
			if err != nil {
				t.Fatalf("round trip failed to decode: %v", err)
			}
			if m2.Meta != m.Meta || m2.World != m.World ||
				m2.BlobBytes != m.BlobBytes ||
				len(m2.Shards) != len(m.Shards) {
				t.Fatalf("round trip changed manifest: %+v -> %+v", m, m2)
			}
		}

		h, err := decodeShardHeader(raw)
		if err == nil {
			if h.Version > FormatVersion {
				t.Fatalf("decodeShardHeader accepted future version %d", h.Version)
			}
			if !bytes.Equal(encodeShardHeader(h)[:shardHeaderLen], raw[:shardHeaderLen]) {
				t.Fatal("shard header round trip changed bytes")
			}
		}
	})
}

// FuzzStateDecode feeds arbitrary bytes to the state decoders:
// decodeSnapshot + Snapshot.Apply, and nn.LoadState. A reassembled blob
// is CRC-checked, but a bug in the writer or a version skew still
// reaches these decoders, so they must reject any input with an error —
// never a panic, and never an allocation out of proportion to the
// input. A FormatVersion 2 input that restores must re-encode to the
// same bytes: the layout has exactly one encoding per state. (The
// legacy gob paths rely on encoding/gob's own size limits and are
// checked only for errors.)
func FuzzStateDecode(f *testing.F) {
	m, opt := newTestState(f, 1)
	valid := captureTest(f, m, opt, Meta{Step: 3, Generation: 1, World: 2, Seed: 7}).Bytes()
	var state bytes.Buffer
	if err := nn.SaveState(&state, m); err != nil {
		f.Fatal(err)
	}
	v2Header := append([]byte(nil), state.Bytes()[:12]...)
	f.Add(valid)
	f.Add(captureTest(f, m, nil, Meta{Step: 3}).Bytes())
	f.Add(legacyBlob(f, m, opt, Meta{Step: 3, World: 2}))
	f.Add(state.Bytes())
	f.Add(append(append([]byte(nil), valid...), 0)) // trailing byte
	for n := 0; n < len(valid); n += 61 {
		f.Add(valid[:n])
	}
	// Huge counts and lengths, each planted in an otherwise valid blob.
	s := blobHeaderLen + 4*len(opt.FlatState()) // start of the nn stream
	nameLen := int(binary.LittleEndian.Uint32(valid[s+16:]))
	rankAt := s + 20 + nameLen
	countAt := rankAt + 4 + 4*int(binary.LittleEndian.Uint32(valid[rankAt:]))
	for _, plant := range []struct {
		at   int
		wide bool
		v    uint64
	}{
		{40, true, 1 << 61},        // optimizer element count
		{s + 8, false, 3},          // nn format version from the future
		{s + 12, false, 1<<32 - 1}, // parameter count
		{s + 16, false, 1<<32 - 1}, // name length
		{rankAt, false, 1<<32 - 1}, // rank
		{countAt, true, 1 << 60},   // element count
		{countAt, true, 1 << 62},   // element count whose 4*n wraps to 0
		{countAt, true, 1<<64 - 1}, // element count whose 4*n wraps to 2^64-4
	} {
		c := append([]byte(nil), valid...)
		if plant.wide {
			binary.LittleEndian.PutUint64(c[plant.at:], plant.v)
		} else {
			binary.LittleEndian.PutUint32(c[plant.at:], uint32(plant.v))
		}
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// allocBound is the most a decoder may allocate for raw when only
		// the fixed-layout decoders run.
		allocBound := 16*uint64(len(raw)) + 64<<10
		var before, after runtime.MemStats

		m2, opt2 := newTestState(t, 2)
		p, splitErr := splitBlob(raw)
		fixed := bytes.HasPrefix(raw, blobMagic[:]) && (splitErr != nil || bytes.HasPrefix(p.model, v2Header))
		runtime.ReadMemStats(&before)
		snap, err := decodeSnapshot(raw)
		var meta Meta
		if err == nil {
			meta, err = snap.Apply(m2, opt2)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; fixed && got > allocBound {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), got)
		}
		if err == nil && fixed {
			var reOpt optim.Optimizer = opt2
			if p.opt == nil {
				reOpt = nil
			}
			if re := captureTest(t, m2, reOpt, meta).Bytes(); !bytes.Equal(re, raw) {
				t.Fatalf("restored blob re-encodes differently:\n% x\nwant\n% x", re, raw)
			}
		}

		m3 := testModel(3)
		runtime.ReadMemStats(&before)
		err = nn.LoadState(bytes.NewReader(raw), m3)
		runtime.ReadMemStats(&after)
		fixed = bytes.HasPrefix(raw, v2Header)
		// LoadState reads the stream into memory first: allow for that
		// buffer's growth.
		if got := after.TotalAlloc - before.TotalAlloc; fixed && got > allocBound+4*uint64(len(raw)) {
			t.Fatalf("nn.LoadState of %d bytes allocated %d", len(raw), got)
		}
		if err == nil && fixed {
			var re bytes.Buffer
			if err := nn.SaveState(&re, m3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), raw) {
				t.Fatalf("loaded state re-encodes differently:\n% x\nwant\n% x", re.Bytes(), raw)
			}
		}
	})
}
