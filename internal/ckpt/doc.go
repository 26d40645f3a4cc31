// Package ckpt is the durable checkpoint subsystem: it persists full
// training state — model parameters and buffers (nn.SaveState),
// optimizer state (optim.StateFlattener), and progress (step,
// generation, seed) — to disk in parallel shards, and restores it on a
// cold start. It closes the gap the elastic layer alone cannot: elastic
// recovery keeps a run alive as long as one worker survives, but when
// every worker dies at once, only state that reached disk survives.
// Together the two subsystems cover the full failure matrix (see the
// root package doc and ARCHITECTURE.md).
//
// # State model
//
// Capture serializes the complete training state into one byte blob
// (a Snapshot). DDP's core invariant — every rank holds bit-identical
// parameters, buffers, and optimizer state — means every rank produces
// a byte-identical blob, so the blob can be split into contiguous
// per-rank shards (ShardRange) with no cross-rank communication at all:
// rank r persists bytes [off_r, off_r+len_r) of a blob it computed
// locally. Checkpoint wall-clock cost therefore scales down with world
// size instead of serializing through a single writer.
//
// # On-disk format (FormatVersion 2)
//
// A checkpoint at step S under elastic generation G in a world of W is:
//
//	<dir>/g<G>-s<S>-r<R>of<W>.shard   one per rank R   (written first, in parallel)
//	<dir>/g<G>-s<S>.manifest          commit record    (written last, by rank 0)
//
// Shard files are a fixed 52-byte little-endian header — magic (8),
// format version (4), generation (8), step (8), world (4), rank (4),
// blob offset (8), payload length (8) — then the payload, then a
// CRC32-IEEE trailer over everything before it. Manifests are a framed JSON record (magic, length, JSON, CRC32)
// listing every shard's file name, byte range, and exact file size.
//
// The state blob the shards split is a fixed little-endian layout:
//
//	magic "DDPSTAT2" (8)
//	Meta: step, generation, world, seed (int64 each)
//	optimizer element count n (uint64; all ones when the optimizer has
//	  no optim.StateFlattener), then n float32s as raw bits
//	the nn.SaveState stream (StateFormatVersion 2), to the end of the blob
//
// so Capture fills one exactly-sized blob in one pass, restore copies
// every bit back (NaN payloads included), and decodeSnapshot reads Meta
// from the fixed header without touching the tensors. Every count is
// checked against the bytes that remain before it is used.
//
// FormatVersion 1 checkpoints still load: their shards and manifests
// have the same framing, and their blob is a gob image, recognised by
// the missing magic. Readers reject files of a version newer than
// FormatVersion.
//
// Every file is published with the same durability protocol: write to
// <dir>/.tmp-<name>, fsync, rename to the final name, fsync the
// directory. Readers ignore .tmp- files, so a file either exists
// completely or not at all.
//
// # Commit protocol
//
// A checkpoint is committed if and only if its manifest is present and
// checksum-valid. Ranks write shards in parallel; a Committer then
// provides the commit barrier — rank 0 publishes the manifest only
// after every rank has reported its shard durable. Two committers are
// provided: GroupCommitter (a collective Barrier, for synchronous
// in-loop saves) and StoreCommitter (an arrival counter in the
// rendezvous store, for asynchronous saves — store traffic cannot
// disturb the collective data plane's submission order). A crash at any
// point before the manifest rename leaves only ignorable debris:
// .tmp- files and orphan shards that no manifest references and that
// retention later sweeps.
//
// # Restore and re-sharding
//
// Load scans the directory for committed manifests, newest first by
// (step, generation), and fully validates each candidate — manifest
// CRC, shard coverage of exactly [0, BlobBytes), per-shard header
// consistency, size, and payload CRC — falling back to the next-newest
// checkpoint when one is torn or corrupt. Because the manifest records
// every shard's byte range, a reader of any world size reassembles the
// same blob: restoring 3-way-sharded state into a world of 2 (or 5, or
// 1) is the ordinary path, not a special case. Writer.Keep (default 2)
// retains a fallback checkpoint so corruption at rest never strands a
// run with nothing loadable.
//
// # Asynchronous checkpointing
//
// AsyncWriter moves everything but the state capture off the training
// hot path: Capture (one encode pass of the state into one blob, see
// BenchmarkCapture) runs between steps, and a
// background goroutine does the serialization barrier, fsync, and
// commit. Saves are abandoned (ErrAbandoned) rather than stuck when a
// membership change means a shard will never arrive; the elastic agent
// wires its generation watcher into the save's cancel channel for
// exactly that.
//
// The elastic agent (elastic.Config.Checkpoint) saves every N steps and
// probes/restores on cold start; `ddptrain -ckpt-dir -ckpt-every
// -resume` and examples/checkpoint exercise the subsystem end to end.
package ckpt
