// provml_wal — durable document store: append-only write-ahead log with
// group commit, log segmentation, snapshot compaction, and crash recovery.
//
// On-disk layout of a store directory:
//
//   wal-<lsn16hex>.seg   append-only segments of CRC-framed records; the
//                        hex field is the LSN of the segment's first record
//   snap-<lsn16hex>.pws  full document snapshot as of that LSN, written
//                        atomically (tmp + fsync + rename)
//
// Durability contract: append() returns an LSN only after the record's
// frame is fully on the active segment (and fsync'd, per policy). A record
// that was never acknowledged is never visible after recovery: failed
// appends truncate the segment back to the last acknowledged byte, and
// recover() truncates the log at the first torn or CRC-failing frame. So
// the recovered document set is always the fold of exactly the
// acknowledged record prefix.
//
// Group commit (kEveryWrite): concurrent appenders coalesce into shared
// fsyncs. Each append writes its frame under the metadata lock (LSNs stay
// dense, in log order), then joins a leader/follower protocol: the first
// waiter becomes the leader, drops the lock, and issues ONE fsync covering
// every frame written so far; followers block until a covering fsync (or
// failure) resolves them. Acknowledgment still happens only after the
// covering fsync — the durability contract is unchanged, only the
// fsync-per-acknowledgment ratio drops. A failed group fsync fails every
// pending append and truncates back to the last acknowledged byte.
//
// Fsync policy trade-off (what an acknowledged write survives):
//   kEveryWrite  host power loss — fsync before every acknowledgement
//   kInterval    process crash always; power loss up to `fsync_interval` old
//   kNone        process crash only (bytes are in the page cache)
//
// Compaction replays the store's *own files* up to a frozen LSN and writes
// a snapshot — it never reads service memory, so it runs on a background
// thread with only brief metadata locking, and a crash mid-compaction
// leaves the previous snapshot + segments fully authoritative.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/wal/record.hpp"

namespace provml::wal {

enum class FsyncPolicy { kEveryWrite, kInterval, kNone };

/// Parses "every_write" | "interval" | "none" (the --fsync CLI values).
[[nodiscard]] Expected<FsyncPolicy> parse_fsync_policy(const std::string& text);
[[nodiscard]] const char* to_string(FsyncPolicy policy);

struct Options {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryWrite;
  /// Segment rotation threshold; the active segment is sealed (fsync'd)
  /// once it crosses this size.
  std::uint64_t segment_bytes = 4ull * 1024 * 1024;
  /// Max staleness between fsyncs under FsyncPolicy::kInterval.
  std::chrono::milliseconds fsync_interval{50};
  /// Records appended between automatic compactions; 0 = manual only.
  std::uint64_t compact_every = 4096;
  /// Run automatic compaction on a background thread (true for servers;
  /// tests use false for deterministic synchronous compaction).
  bool background_compaction = true;
};

struct Stats {
  Lsn last_lsn = 0;
  Lsn snapshot_lsn = 0;
  std::size_t segment_count = 0;
  std::uint64_t records_since_compaction = 0;
  std::uint64_t compactions = 0;
  /// Seconds since the last completed compaction; negative = never.
  double seconds_since_compaction = -1.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t fsync_us_total = 0;
  std::uint64_t appended_bytes = 0;
  /// Acknowledged appends; under kEveryWrite group commit this can exceed
  /// `fsyncs` — the gap is the batching win.
  std::uint64_t appends = 0;
};

/// One segment's replay accounting, reported by recover().
struct SegmentInfo {
  std::string path;
  Lsn first_lsn = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< valid bytes (post torn-tail truncation)
};

struct RecoveredState {
  /// name → compact PROV-JSON body, the fold of snapshot + replayed tail.
  std::map<std::string, std::string> documents;
  Lsn last_lsn = 0;
  Lsn snapshot_lsn = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t truncated_bytes = 0;    ///< torn/corrupt tail bytes dropped
  std::size_t dropped_segments = 0;     ///< segments past the first bad frame
  std::vector<SegmentInfo> segments;    ///< surviving segments, LSN order
};

/// Loads the newest valid snapshot and replays the WAL tail, truncating
/// the log at the first torn/CRC-failing record. Repairs in place: the
/// torn segment is ftruncate'd to its last valid frame, segments past it
/// and unreadable snapshots are deleted. A missing directory recovers to
/// the empty state.
[[nodiscard]] Expected<RecoveredState> recover(const std::string& dir);

/// Whether `dir` contains WAL files (segments or snapshots).
[[nodiscard]] bool store_exists(const std::string& dir);

/// Writes a full snapshot of `documents` at `lsn` into `dir`, atomically.
[[nodiscard]] Status write_snapshot(const std::string& dir,
                                    const std::map<std::string, std::string>& documents,
                                    Lsn lsn);

/// Replaces whatever store lives at `dir` with exactly `documents`: writes
/// a snapshot one LSN past the existing store's tail and removes the
/// now-covered segments. Used by detached YProvService::save().
[[nodiscard]] Status replace_store(const std::string& dir,
                                   const std::map<std::string, std::string>& documents);

/// The durable store handle: recovery at open, group-commit appends,
/// rotation, and (optionally background) snapshot compaction.
class DurableStore {
 public:
  /// Opens (creating if needed) the store at `dir`, running recovery.
  [[nodiscard]] static Expected<std::unique_ptr<DurableStore>> open(
      const std::string& dir, Options options = {});

  /// Joins the compaction thread and seals the active segment (fsync).
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// The state recovery produced at open(). YProvService::attach_wal moves
  /// the documents out when it hydrates from them, leaving the map empty,
  /// so the service holds the only copy of each body.
  [[nodiscard]] RecoveredState& recovered() { return recovered_; }

  /// Appends one record, honoring the fsync policy, and returns its LSN.
  /// Thread-safe. On failure the segment is truncated back to the last
  /// acknowledged byte, so a failed append is never replayed.
  [[nodiscard]] Expected<Lsn> append(const Record& record);

  /// Forces an fsync of the active segment (kInterval/kNone stores).
  [[nodiscard]] Status sync();

  /// Compacts now, synchronously: replays own files to a frozen LSN,
  /// writes snap-<lsn>.pws atomically, then deletes covered segments and
  /// older snapshots. Safe to call concurrently with append().
  [[nodiscard]] Status compact();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  DurableStore(std::string dir, Options options);

  struct Segment {
    std::string path;
    Lsn first_lsn = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;  ///< acknowledged bytes
  };

  [[nodiscard]] Status open_active_segment_locked();
  [[nodiscard]] Status rotate_if_needed_locked(std::unique_lock<std::mutex>& lock);
  [[nodiscard]] Status fsync_active_locked();
  /// Waits out any in-flight group fsync, then fsyncs inline (lock held)
  /// and acknowledges everything pending — used by rotation, sync(), and
  /// shutdown, where an up-to-date sealed file matters more than overlap.
  [[nodiscard]] Status sync_pending_locked(std::unique_lock<std::mutex>& lock);
  /// Credits a successful covering fsync: pending frames become
  /// acknowledged bytes/records of the active segment.
  void ack_pending_locked();
  /// Fails every pending append: rolls their LSNs back, truncates the tail
  /// to the last acknowledged byte, and wakes the waiters.
  void fail_pending_locked();
  /// Truncates the active segment to `keep_bytes` (ftruncate; O_APPEND
  /// makes the next write land there). Failure marks the store broken.
  void repair_tail_locked(std::uint64_t keep_bytes);
  [[nodiscard]] Status compact_impl();
  void compaction_loop();

  const std::string dir_;
  const Options options_;

  mutable std::mutex mutex_;
  int fd_ = -1;                       ///< active segment
  std::vector<Segment> segments_;     ///< [0..n-2] sealed, back() active
  Lsn last_lsn_ = 0;
  Lsn snapshot_lsn_ = 0;
  bool broken_ = false;               ///< unrepairable tail; appends fail
  std::chrono::steady_clock::time_point last_fsync_ = std::chrono::steady_clock::now();
  std::uint64_t records_since_compaction_ = 0;
  std::uint64_t compactions_ = 0;
  std::chrono::steady_clock::time_point last_compaction_{};
  bool compacted_once_ = false;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t fsync_us_total_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t appends_ = 0;

  // Group commit (guarded by mutex_). Tickets are monotonic and never
  // rolled back, unlike LSNs: an append writes its frame, takes ticket
  // ++write_seq_, and is resolved once synced_seq_ (acknowledged) or
  // failed_upto_ (failed) reaches its ticket. pending_* counts frames
  // written to the active segment but not yet covered by an fsync —
  // Segment::bytes/records hold only *acknowledged* frames.
  std::uint64_t write_seq_ = 0;
  std::uint64_t synced_seq_ = 0;
  std::uint64_t failed_upto_ = 0;
  bool sync_in_flight_ = false;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t pending_records_ = 0;
  std::condition_variable sync_cv_;

  RecoveredState recovered_;

  // Background compaction: append() signals when the record budget is
  // spent; only one compaction runs at a time (compact_mutex_).
  std::mutex compact_mutex_;
  std::thread compaction_thread_;
  std::condition_variable compaction_cv_;
  bool stop_ = false;
  bool compaction_due_ = false;
};

}  // namespace provml::wal
