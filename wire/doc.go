// Package wire defines the pmkv network protocol: a compact length-prefixed
// binary framing shared by package server and package client.
//
// The normative protocol specification — frame layout, the full opcode and
// status tables (including the byte-key ops GetK/PutK/DeleteK/ScanK and
// OpTxn), size limits, pipelining rules, and versioning/compatibility notes — lives in
// PROTOCOL.md next to this file. This package is its reference
// implementation; where prose and code disagree, PROTOCOL.md wins and the
// code has a bug.
//
// In one breath: every message is a frame of `len u32 | body`, request
// bodies are `id u64 | op u8 | payload`, response bodies are
// `id u64 | op u8 | status u8 | payload`, all integers big-endian. The
// client-chosen id, echoed verbatim by the server, is what lets one
// connection carry many in-flight requests with responses matched back out
// of order.
//
// Decoders are hardened against arbitrary bytes: they never panic, never
// allocate more than the frame they were handed, and reject frames with
// trailing garbage (see FuzzDecodeRequest/FuzzDecodeResponse). Encoders
// append into caller-supplied buffers and allocate nothing when the buffer
// has capacity (see the alloc_test.go contracts).
package wire
