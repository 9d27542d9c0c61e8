// Package repro is a Go reproduction of "Endurable Transient Inconsistency
// in Byte-Addressable Persistent B+-Tree" (FAST 2018) grown into a small
// persistent-memory storage stack. It contains the FAST and FAIR algorithms,
// a simulated persistent-memory substrate with crash injection, the paper's
// baseline index structures, a benchmark harness regenerating every figure,
// and the public layers on top:
//
//   - package index — the canonical Index interface, the Kind registry, and
//     the Open/OpenExisting/New factories over every structure under test;
//   - package store — a sharded concurrent KV store that hash-partitions
//     keys across FAST+FAIR trees (one pool per shard), hides per-goroutine
//     pmem.Thread handling behind Sessions, stores fixed-width uint64
//     values in-tree and byte-string keys and values through a per-shard
//     persistent value log (internal/vlog), reopens crash images with
//     per-shard recovery, and drains in-flight operations on Close
//     (operations on a closed store fail with store.ErrClosed);
//   - package wire — the pmkv network protocol: length-prefixed binary
//     frames with request ids for pipelining, fixed-width and byte-key
//     opcodes, fuzz-hardened decoders (normative spec in wire/PROTOCOL.md);
//   - package server — a TCP server over a store.Store with per-connection
//     worker Sessions, graceful drain on Shutdown, and serve-side counters
//     (run it with cmd/pmkv-server, load it with cmd/pmkv-loadgen);
//   - package client — the pipelined Go client: async Calls matched by id,
//     synchronous wrappers, and a round-robin connection Pool.
//
// See README.md for the package layout and how to run the benchmarks,
// ARCHITECTURE.md for the layer map and the per-layer crash-consistency
// argument, and wire/PROTOCOL.md for the network protocol. The root
// package holds only the figure benchmarks (bench_test.go).
package repro
