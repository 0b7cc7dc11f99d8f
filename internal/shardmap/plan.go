// Package shardmap scales the streaming design-space sweep out across
// twocsd replicas: it partitions the evolution-grid row-index space
// into contiguous [lo,hi) shards, fans the shards over N replicas'
// /v1/sweep range endpoints, and re-emits the fetched rows through a
// local stream.Sink in strict global grid order — so the assembled
// NDJSON artifact (rows and trailer alike) is byte-identical to a
// single-node sweep at any replica count. It is parallel.StreamCtx's
// ordered-emitter discipline lifted one level: replicas play the role
// of workers, shards the role of chunks, and a turn-taking sequencer
// (parallel.Turns) enforces emission order.
//
// Failure handling is per shard: a replica answering 429/503 backs off
// (honoring Retry-After), a replica that stops answering is retired,
// and an interrupted shard's remaining range — the trailer's Rows says
// exactly where the contiguous prefix ended — is re-dispatched to a
// healthy replica, resuming at lo+rows rather than recomputing the
// shard. Only when every replica is dead or a shard exhausts its
// attempts does the sweep abort, and then the way a single-node stream
// aborts: ordered prefix delivered, trailer naming the reason.
package shardmap

// DefaultShardRows is the planner's default shard size. Shards are the
// unit of retry and of coordinator buffering (a fetched shard is held
// in memory until its emission turn), so the default balances fan-out
// granularity against worst-case buffering of shards × replicas rows.
const DefaultShardRows = 65536

// Range is one shard: the global grid rows with index in [Lo, Hi).
type Range struct {
	Lo, Hi int64
}

// Rows returns the shard's row count.
func (r Range) Rows() int64 { return r.Hi - r.Lo }

// Plan partitions [0, total) into contiguous shards of shardRows rows
// (the last shard takes the remainder; shardRows <= 0 selects
// DefaultShardRows). The plan depends only on total and shardRows —
// never on how many replicas will serve it — which is what makes the
// fan-out's digests and artifact invariant under replica count.
func Plan(total, shardRows int64) []Range {
	if total <= 0 {
		return nil
	}
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	out := make([]Range, 0, (total+shardRows-1)/shardRows)
	for lo := int64(0); lo < total; lo += shardRows {
		hi := lo + shardRows
		if hi > total {
			hi = total
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}
