// Replica-consistency layer for the fleet (the fix for "recovered
// replicas serve stale data"). Three cooperating mechanisms, all driven
// off per-block write versions recorded in each storage node's
// se::VersionMap:
//
//  * Version authority — the fleet-level committed-version record (a
//    simulated stand-in for quorum metadata): coordinators draw a fresh
//    version per write and commit it on the first replica ack. Reads
//    compare a replica's served version against the committed one.
//  * Hinted handoff — writes that cannot reach a replica (down, or the
//    coordinator gave up after retries) queue a bounded per-node hint.
//    On overflow the queue is abandoned and recovery falls back to a
//    version-map diff.
//  * Catch-up transfer — on recovery the node is write-only routed
//    until catch-up completes: hints are replayed if intact, else the
//    authority's committed versions are diffed against the node's
//    VersionMap and only the stale blocks are copied from a live peer
//    (never a full shard re-copy). Both paths apply through the
//    version-gated write so concurrent fresh writes are never clobbered.
//
// Read-repair is the backstop: a read that observes a stale replica
// re-steers and, in the background, pushes the fresh block back to the
// stale node (dedup'd here so one block is repaired once at a time).
//
// The authority is also maintained when the layer is disabled — it then
// serves purely as the staleness instrument (expected version per block)
// that makes the bug measurable.

#ifndef DPDPU_CLUSTER_CONSISTENCY_H_
#define DPDPU_CLUSTER_CONSISTENCY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "common/buffer.h"
#include "common/function.h"
#include "sim/simrace.h"

namespace dpdpu::cluster {

class Fleet;

struct ConsistencyOptions {
  /// Master switch: versioned writes, hinted handoff, catch-up gating,
  /// and read-repair. Off reproduces the stale-read bug.
  bool enabled = false;
  /// Bound on queued hints per storage node; overflow abandons the
  /// queue and recovery uses the version-map diff instead.
  uint32_t max_hints_per_node = 1024;
  /// Watchdog on each catch-up transfer RPC. A request fully acked by
  /// TCP before its target goes dark never stalls the connection, so
  /// the retransmission cap cannot fire — without this bound the
  /// transfer wedges forever waiting for a response that will never
  /// come (and its unreplayed hints leak with it).
  uint64_t catchup_rpc_timeout = 2'000'000;  // 2 ms
};

class ConsistencyManager {
 public:
  struct Stats {
    uint64_t versions_issued = 0;
    /// Commit() calls that raised the committed version (re-publishing
    /// an already-committed version is idempotent and not counted).
    uint64_t commits = 0;
    /// Commit() calls naming a version never drawn for the block — an
    /// authority-corruption canary; must stay 0.
    uint64_t phantom_commits = 0;
    uint64_t hints_queued = 0;
    uint64_t hints_dropped = 0;  // rejected at enqueue (queue full)
    /// Queued hints discarded unreplayed when recovery fell back to the
    /// version-map diff. Conservation: hints_queued == hints_replayed +
    /// hints_abandoned + sum(hints_pending()).
    uint64_t hints_abandoned = 0;
    uint64_t hints_replayed = 0;
    uint64_t hint_bytes = 0;  // payload bytes replayed from hints
    uint64_t hint_overflow_fallbacks = 0;
    uint64_t diff_blocks_copied = 0;
    uint64_t diff_bytes = 0;  // payload bytes copied by the diff path
    uint64_t diff_blocks_unrepaired = 0;  // no live peer held the block
    uint64_t catchup_write_failures = 0;
    /// Transfer RPCs abandoned by the watchdog (target or donor went
    /// dark after acking the request, so no response ever arrives).
    uint64_t catchup_rpc_timeouts = 0;
    uint64_t catchups_completed = 0;
    /// Transfers that stood down because the node failed again mid
    /// catch-up; their unreplayed hints are handed back to the queue.
    uint64_t catchups_aborted = 0;
    uint64_t read_repairs = 0;
  };

  ConsistencyManager(Fleet* fleet, ConsistencyOptions options);

  bool enabled() const { return options_.enabled; }
  const ConsistencyOptions& options() const { return options_; }

  // --- version authority ---------------------------------------------------

  /// Draws the next write version for the block at `offset` (key and
  /// length recorded for the catch-up diff).
  uint64_t NextVersion(uint64_t offset, uint64_t key, uint32_t length);
  /// Records that `version` reached at least one replica.
  void Commit(uint64_t offset, uint64_t version);
  /// Latest committed version for the block; 0 when never written.
  uint64_t CommittedVersion(uint64_t offset) const;

  // --- hinted handoff ------------------------------------------------------

  void QueueHint(uint32_t node_index, uint64_t offset, uint64_t version,
                 Buffer data);
  size_t hints_pending(uint32_t node_index) const;
  bool hint_overflowed(uint32_t node_index) const;

  // --- catch-up transfer ---------------------------------------------------

  /// Brings storage node `node_index` up to date (hints, else diff) and
  /// invokes `done` when it may serve reads again. The caller keeps the
  /// node write-only routed until then. May complete synchronously when
  /// there is nothing to transfer.
  void CatchUp(uint32_t node_index, UniqueFunction<void()> done);

  /// Publishes the node's durable state to the version authority; the
  /// caller invokes this immediately before re-admitting the node to
  /// the read set. Every version the node holds durably is about to
  /// become observable, so the authority must account for it — in
  /// particular writes acked while the node was write-only (no readable
  /// replica held them then, so the coordinator could not commit) and
  /// replayed hints. Without this the staleness instrument
  /// under-expects and peer catch-up diffs skip those blocks.
  void FinalizeCatchUp(uint32_t node_index);

  // --- read-repair dedup ---------------------------------------------------

  /// Claims (node, offset) for repair; false when a repair is already in
  /// flight for it.
  bool BeginRepair(uint32_t node_index, uint64_t offset);
  void EndRepair(uint32_t node_index, uint64_t offset);
  void NoteReadRepair() {
    DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                     sim::RaceKey(kRaceSaltRepairs, 0),
                     sim::AccessKind::kCommutativeWrite);
    ++stats_.read_repairs;
  }

  const Stats& stats() const { return stats_; }

 private:
  friend struct CatchUpJob;

  struct AuthorityEntry {
    uint64_t key = 0;
    uint32_t length = 0;
    uint64_t next_version = 0;
    uint64_t committed = 0;
  };
  struct Hint {
    uint64_t offset = 0;
    uint64_t version = 0;
    Buffer data;
  };

  /// simrace sub-key salts (domain separation inside one authority tag):
  /// per-block version draws, per-block committed record, per-node hint
  /// queues, per-(node, block) repair claims.
  static constexpr uint64_t kRaceSaltNextVersion = 0x10;
  static constexpr uint64_t kRaceSaltCommitted = 0x11;
  static constexpr uint64_t kRaceSaltHints = 0x20;
  static constexpr uint64_t kRaceSaltRepairs = 0x30;

  Fleet* fleet_;
  ConsistencyOptions options_;
  /// Keyed by shard offset (block id); std::map so the catch-up diff
  /// walks blocks in deterministic order.
  std::map<uint64_t, AuthorityEntry> authority_;
  std::map<uint32_t, std::deque<Hint>> hints_;  // by storage index
  std::set<uint32_t> overflowed_;
  std::set<std::pair<uint32_t, uint64_t>> active_repairs_;
  Stats stats_;
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::cluster

#endif  // DPDPU_CLUSTER_CONSISTENCY_H_
