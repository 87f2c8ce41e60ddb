// Package replica implements primary/follower replication over the
// engine's WAL: the primary retains its commit stream in bounded
// per-shard backlogs and ships CRC-framed logical WAL records to
// followers, which apply them through the same WAL + memtable path crash
// recovery uses, preserving original sequence numbers. A follower
// bootstraps from an online checkpoint (internal/checkpoint), then
// streams from its recovered watermark; reads on the follower get
// read-your-writes semantics by waiting on sequence numbers
// (core.WaitForSeq). Merkle trees over the logical keyspace
// (merkle.go) make divergence detection cheap.
//
// The stream rides the server's protocol: a REPLSYNC request carries the
// follower's per-shard watermark vector, and the server answers with an
// open-ended stream of REPLFRAME responses on the same request ID, each
// body one frame (frame.go). This package holds the primary side and the
// frame codec and speaks no wire itself: the server serves Primary.Stream,
// and the follower is a streaming call of internal/client.
package replica
