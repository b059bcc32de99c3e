// provml_wal: frame codec units, DurableStore append/rotate/compact, and
// the crash-recovery property — recovery always yields the fold of exactly
// the acknowledged mutation prefix, under fault injection at every
// storage.* seam and under a real SIGKILL mid-write.
// Labeled `wal` in ctest: `ctest -L wal`.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "provml/common/file_io.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/fault.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"
#include "provml/wal/record.hpp"
#include "provml/wal/wal.hpp"

namespace provml::wal {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("provml_wal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::FaultInjector::global().disarm_all();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

Record put(const std::string& name, const std::string& body) {
  return Record{Record::Type::kPutDocument, name, body};
}
Record del(const std::string& name) {
  return Record{Record::Type::kDeleteDocument, name, ""};
}

/// Applies one record to a plain map — the reference fold the recovered
/// document set is compared against.
void fold_apply(std::map<std::string, std::string>& docs, const Record& r) {
  if (r.type == Record::Type::kPutDocument) {
    docs[r.name] = r.body;
  } else {
    docs.erase(r.name);
  }
}

// ------------------------------------------------------------------ framing

TEST_F(WalTest, FrameRoundTripsRecords) {
  const std::vector<Record> records = {
      put("a", "{\"entity\":{}}"),
      put("empty-body", ""),
      del("a"),
      put(std::string(300, 'n'), std::string(70000, 'x')),  // multi-byte varints
  };
  std::vector<std::uint8_t> bytes;
  for (const Record& r : records) append_frame(bytes, r);

  std::size_t offset = 0;
  for (const Record& r : records) {
    const DecodeResult frame = decode_frame(bytes, offset);
    ASSERT_EQ(frame.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.record, r);
    EXPECT_EQ(frame.next_offset - offset, frame_size(r));
    offset = frame.next_offset;
  }
  EXPECT_EQ(decode_frame(bytes, offset).status, DecodeStatus::kEnd);
}

TEST_F(WalTest, EveryTruncationOfAFrameIsTornNeverOk) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, put("doc", "{\"entity\":{\"e\":{}}}"));
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + static_cast<std::ptrdiff_t>(len));
    const DecodeResult frame = decode_frame(prefix, 0);
    EXPECT_EQ(frame.status, DecodeStatus::kTorn) << "at length " << len;
  }
}

TEST_F(WalTest, EverySingleByteFlipIsDetected) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, put("doc", "{\"entity\":{}}"));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[i] ^= 0x41;
    const DecodeResult frame = decode_frame(mutated, 0);
    // A flipped byte may masquerade as a longer frame (torn) but can never
    // decode as a *different valid record* — the CRC covers the payload.
    if (frame.status == DecodeStatus::kOk) {
      EXPECT_EQ(frame.record, put("doc", "{\"entity\":{}}")) << "byte " << i;
    }
  }
}

TEST_F(WalTest, OversizedDeclaredLengthIsCorruptNotTorn) {
  // varint(1 GiB) — recovery must not wait for bytes that were never
  // written, nor try to allocate them.
  std::vector<std::uint8_t> bytes = {0x80, 0x80, 0x80, 0x80, 0x04, 0, 0, 0, 0};
  EXPECT_EQ(decode_frame(bytes, 0).status, DecodeStatus::kCorrupt);
}

// ----------------------------------------------------------- append/recover

TEST_F(WalTest, AppendThenRecoverYieldsTheFold) {
  std::map<std::string, std::string> expected;
  {
    auto store = DurableStore::open(dir());
    ASSERT_TRUE(store.ok()) << store.error().to_string();
    const std::vector<Record> ops = {put("a", "1"), put("b", "2"), put("a", "3"),
                                     del("b"),      put("c", "4"), del("missing")};
    for (const Record& r : ops) {
      auto lsn = store.value()->append(r);
      ASSERT_TRUE(lsn.ok()) << lsn.error().to_string();
      fold_apply(expected, r);
    }
    EXPECT_EQ(store.value()->stats().last_lsn, ops.size());
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().documents, expected);
  EXPECT_EQ(recovered.value().last_lsn, 6u);
  EXPECT_EQ(recovered.value().truncated_bytes, 0u);
}

TEST_F(WalTest, LsnsAreDenseAndMonotonic) {
  auto store = DurableStore::open(dir());
  ASSERT_TRUE(store.ok());
  for (Lsn i = 1; i <= 20; ++i) {
    auto lsn = store.value()->append(put("d" + std::to_string(i % 3), "x"));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), i);
  }
}

TEST_F(WalTest, SmallSegmentsRotateAndRecover) {
  Options options;
  options.segment_bytes = 128;  // rotate every few records
  options.compact_every = 0;
  std::map<std::string, std::string> expected;
  {
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 40; ++i) {
      const Record r = put("doc" + std::to_string(i % 5), std::string(24, 'a' + i % 26));
      ASSERT_TRUE(store.value()->append(r).ok());
      fold_apply(expected, r);
    }
    EXPECT_GT(store.value()->stats().segment_count, 3u);
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().documents, expected);
  EXPECT_EQ(recovered.value().last_lsn, 40u);
  EXPECT_GT(recovered.value().segments.size(), 3u);
}

TEST_F(WalTest, ReopenContinuesTheLsnSequence) {
  {
    auto store = DurableStore::open(dir());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->append(put("a", "1")).ok());
    ASSERT_TRUE(store.value()->append(put("b", "2")).ok());
  }
  {
    auto store = DurableStore::open(dir());
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->recovered().last_lsn, 2u);
    auto lsn = store.value()->append(del("a"));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), 3u);
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().last_lsn, 3u);
  EXPECT_EQ(recovered.value().documents,
            (std::map<std::string, std::string>{{"b", "2"}}));
}

// --------------------------------------------------------------- compaction

TEST_F(WalTest, CompactionSnapshotsAndDropsCoveredSegments) {
  Options options;
  options.segment_bytes = 128;
  options.compact_every = 0;  // manual
  {
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(store.value()->append(put("d" + std::to_string(i % 4), "v")).ok());
    }
    const std::size_t before = store.value()->stats().segment_count;
    ASSERT_TRUE(store.value()->compact().ok());
    const Stats s = store.value()->stats();
    EXPECT_EQ(s.snapshot_lsn, 30u);
    EXPECT_EQ(s.compactions, 1u);
    EXPECT_LT(s.segment_count, before);
    // Appends keep working after compaction and land past the snapshot.
    auto lsn = store.value()->append(put("after", "w"));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), 31u);
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().snapshot_lsn, 30u);
  EXPECT_EQ(recovered.value().last_lsn, 31u);
  EXPECT_EQ(recovered.value().documents.at("after"), "w");
  EXPECT_EQ(recovered.value().documents.size(), 5u);  // d0..d3 + after
}

TEST_F(WalTest, AutomaticCompactionTriggersOnRecordBudget) {
  Options options;
  options.compact_every = 8;
  options.background_compaction = false;  // deterministic, synchronous
  auto store = DurableStore::open(dir(), options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.value()->append(put("d", std::to_string(i))).ok());
  }
  const Stats s = store.value()->stats();
  EXPECT_GE(s.compactions, 2u);
  EXPECT_GE(s.snapshot_lsn, 8u);
}

TEST_F(WalTest, RecoveryPrefersNewestSnapshotAndIgnoresOlder) {
  std::map<std::string, std::string> older{{"stale", "x"}};
  std::map<std::string, std::string> newer{{"fresh", "y"}};
  ASSERT_TRUE(write_snapshot(dir(), older, 5).ok());
  ASSERT_TRUE(write_snapshot(dir(), newer, 9).ok());
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents, newer);
  EXPECT_EQ(recovered.value().last_lsn, 9u);
}

// ---------------------------------------------------------------- torn tails

TEST_F(WalTest, TornTailIsTruncatedAndRepairedInPlace) {
  {
    auto store = DurableStore::open(dir());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->append(put("a", "1")).ok());
    ASSERT_TRUE(store.value()->append(put("b", "2")).ok());
  }
  // Simulate a crash mid-append: half a frame at the tail of the segment.
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  std::vector<std::uint8_t> frame;
  append_frame(frame, put("c", "torn"));
  auto bytes = io::read_file(segment.string());
  ASSERT_TRUE(bytes.ok());
  std::vector<std::uint8_t> grown = bytes.value();
  grown.insert(grown.end(), frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(frame.size() / 2));
  ASSERT_TRUE(io::write_file_direct(segment.string(), grown).ok());

  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().documents,
            (std::map<std::string, std::string>{{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(recovered.value().last_lsn, 2u);
  EXPECT_GT(recovered.value().truncated_bytes, 0u);
  // The repair is physical: a second recovery sees a clean log.
  auto again = recover(dir());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().truncated_bytes, 0u);
  EXPECT_EQ(again.value().documents, recovered.value().documents);
}

TEST_F(WalTest, GarbageTailIsTruncatedAtTheCorruptFrame) {
  {
    auto store = DurableStore::open(dir());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->append(put("keep", "me")).ok());
  }
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  auto bytes = io::read_file(segment.string());
  ASSERT_TRUE(bytes.ok());
  std::vector<std::uint8_t> grown = bytes.value();
  for (int i = 0; i < 64; ++i) grown.push_back(static_cast<std::uint8_t>(0xA5 ^ i));
  ASSERT_TRUE(io::write_file_direct(segment.string(), grown).ok());

  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents,
            (std::map<std::string, std::string>{{"keep", "me"}}));
  EXPECT_EQ(recovered.value().last_lsn, 1u);
}

// ------------------------------------------------- crash-recovery property

/// Drives a generated mutation stream into a DurableStore with a fault
/// armed at `point`, tracking the fold of exactly the *acknowledged*
/// appends; then recovers and asserts the recovered documents equal that
/// fold. This is the acknowledged-write durability contract.
void run_crash_property(const std::string& dir, std::uint64_t seed,
                        const std::string& point, const Options& options) {
  testkit::Rng rng(seed);
  testkit::MutationStreamOptions stream_options;
  stream_options.max_ops = 16;
  const std::vector<testkit::MutationOp> ops =
      testkit::gen_mutation_stream(rng, stream_options);

  std::map<std::string, std::string> acked;
  Lsn acked_count = 0;
  {
    auto store = DurableStore::open(dir, options);
    ASSERT_TRUE(store.ok()) << store.error().to_string();
    for (auto& [name, body] : store.value()->recovered().documents) {
      acked[name] = body;
    }
    acked_count = store.value()->recovered().last_lsn;

    // Arm mid-sequence: the Nth storage hit fails, later hits succeed.
    const std::uint64_t nth = 1 + rng.below(ops.size() * 2);
    fault::ScopedFault armed(point, {.fail_on_nth = nth});
    for (const testkit::MutationOp& op : ops) {
      Record r;
      if (op.kind == testkit::MutationOp::Kind::kPut) {
        r = put(op.name, prov::to_prov_json_string(op.doc, false));
      } else {
        r = del(op.name);
      }
      auto lsn = store.value()->append(r);
      if (lsn.ok()) {
        fold_apply(acked, r);
        ++acked_count;
        EXPECT_EQ(lsn.value(), acked_count);
      }
      // Failed appends must leave no trace: nothing to do here — the
      // recovery check below is the assertion.
    }
  }
  auto recovered = recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().documents, acked)
      << "seed " << seed << " point " << point;
  EXPECT_EQ(recovered.value().last_lsn, acked_count)
      << "seed " << seed << " point " << point;
}

TEST_F(WalTest, RecoveryEqualsAcknowledgedPrefixUnderWriteFaults) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Options options;
    options.compact_every = 0;
    options.segment_bytes = 256;  // exercise rotation too
    run_crash_property(dir() + "_s" + std::to_string(seed), seed, "storage.write",
                       options);
  }
}

TEST_F(WalTest, RecoveryEqualsAcknowledgedPrefixUnderFsyncFaults) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Options options;
    options.compact_every = 0;
    options.fsync_policy = FsyncPolicy::kEveryWrite;
    run_crash_property(dir() + "_s" + std::to_string(seed), seed, "storage.fsync",
                       options);
  }
}

TEST_F(WalTest, RecoveryEqualsAcknowledgedPrefixWithCompactionUnderRenameFaults) {
  // storage.rename hits the atomic snapshot publish; a failed compaction
  // must leave the log authoritative and recovery exact.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Options options;
    options.compact_every = 4;
    options.background_compaction = false;  // deterministic
    options.segment_bytes = 256;
    run_crash_property(dir() + "_s" + std::to_string(seed), seed, "storage.rename",
                       options);
  }
}

TEST_F(WalTest, FaultedAppendSequenceSurvivesReopenAndMoreAppends) {
  Options options;
  options.compact_every = 0;
  std::map<std::string, std::string> acked;
  {
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    fault::ScopedFault armed("storage.write", {.fail_on_nth = 2});
    for (int i = 0; i < 4; ++i) {
      const Record r = put("d" + std::to_string(i), "v");
      if (store.value()->append(r).ok()) fold_apply(acked, r);
    }
  }
  {
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    const Record r = put("late", "w");
    ASSERT_TRUE(store.value()->append(r).ok());
    fold_apply(acked, r);
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents, acked);
}

// --------------------------------------------------------------- kill -9

TEST_F(WalTest, SigkillMidStreamKeepsExactlyTheAcknowledgedPrefix) {
  // Child appends records with fsync-every-write, reporting each
  // acknowledged LSN over a pipe; the parent SIGKILLs it mid-stream. The
  // recovered store must contain every acknowledged record and no record
  // past the attempted prefix — with zero CRC-invalid frames accepted.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    Options options;
    options.fsync_policy = FsyncPolicy::kEveryWrite;
    options.compact_every = 0;
    auto store = DurableStore::open(dir(), options);
    if (!store.ok()) ::_exit(2);
    for (std::uint32_t i = 1; i <= 10000; ++i) {
      auto lsn = store.value()->append(
          put("doc" + std::to_string(i), std::string(128, 'p')));
      if (!lsn.ok()) ::_exit(3);
      const std::uint32_t acked = i;
      if (::write(fds[1], &acked, sizeof(acked)) != sizeof(acked)) ::_exit(4);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::uint32_t last_acked = 0;
  std::uint32_t value = 0;
  // Let a few acknowledgements land, then kill mid-write.
  while (last_acked < 25 && ::read(fds[0], &value, sizeof(value)) == sizeof(value)) {
    last_acked = value;
  }
  ASSERT_GE(last_acked, 25u);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  // Drain any acks the child pushed before dying.
  while (::read(fds[0], &value, sizeof(value)) == sizeof(value)) last_acked = value;
  ::close(fds[0]);

  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_GE(recovered.value().last_lsn, last_acked);       // acked writes present
  EXPECT_LE(recovered.value().last_lsn, 10000u);           // nothing invented
  EXPECT_EQ(recovered.value().documents.size(), recovered.value().last_lsn);
  for (std::uint32_t i = 1; i <= last_acked; ++i) {
    EXPECT_TRUE(recovered.value().documents.count("doc" + std::to_string(i)))
        << "acknowledged doc" << i << " lost";
  }
}

// ------------------------------------------------------------ fsync policies

TEST_F(WalTest, AllFsyncPoliciesRecoverAfterCleanClose) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kEveryWrite, FsyncPolicy::kInterval, FsyncPolicy::kNone}) {
    const std::string d = dir() + "_" + to_string(policy);
    Options options;
    options.fsync_policy = policy;
    options.compact_every = 0;
    {
      auto store = DurableStore::open(d, options);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->append(put("a", "1")).ok());
      ASSERT_TRUE(store.value()->sync().ok());
    }
    auto recovered = recover(d);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().documents.size(), 1u) << to_string(policy);
    fs::remove_all(d);
  }
  EXPECT_TRUE(parse_fsync_policy("every_write").ok());
  EXPECT_TRUE(parse_fsync_policy("interval").ok());
  EXPECT_TRUE(parse_fsync_policy("none").ok());
  EXPECT_FALSE(parse_fsync_policy("sometimes").ok());
}

// --------------------------------------------------------- service wrappers

prov::Document tiny_doc(const std::string& label) {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/ex#");
  doc.add_entity("ex:" + label, {});
  return doc;
}

TEST_F(WalTest, ServiceAttachWalLogsAndRecovers) {
  {
    graphstore::YProvService service;
    ASSERT_TRUE(service.attach_wal(dir()).ok());
    ASSERT_TRUE(service.wal_attached());
    ASSERT_TRUE(service.put_document("m1", tiny_doc("model")).ok());
    ASSERT_TRUE(service.put_document("m2", tiny_doc("data")).ok());
    ASSERT_TRUE(service.delete_document("m1"));
    EXPECT_EQ(service.wal_stats().last_lsn, 3u);
  }
  graphstore::YProvService reopened;
  ASSERT_TRUE(reopened.attach_wal(dir()).ok());
  EXPECT_EQ(reopened.list_documents(), std::vector<std::string>{"m2"});
  EXPECT_TRUE(reopened.get_document("m2").has_value());
  EXPECT_EQ(reopened.wal_stats().last_lsn, 3u);
}

TEST_F(WalTest, ServicePutRollsBackWhenTheWalRejectsIt) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.attach_wal(dir()).ok());
  ASSERT_TRUE(service.put_document("keep", tiny_doc("keep")).ok());
  {
    fault::ScopedFault armed("storage.write", {.fail_on_nth = 1});
    EXPECT_FALSE(service.put_document("reject", tiny_doc("reject")).ok());
  }
  // The failed put left neither memory nor log trace.
  EXPECT_FALSE(service.get_document("reject").has_value());
  EXPECT_EQ(service.document_count(), 1u);
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents.size(), 1u);
  EXPECT_TRUE(recovered.value().documents.count("keep"));
}

TEST_F(WalTest, RoutedWalFailureMapsTo500NotClientError) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.attach_wal(dir()).ok());
  const std::string body = prov::to_prov_json_string(tiny_doc("m"), false);
  fault::ScopedFault armed("storage.write", {.fail_on_nth = 1});
  const graphstore::Response response =
      service.handle({"PUT", "/api/v0/documents/m", body});
  EXPECT_EQ(response.status, 500);
}

TEST_F(WalTest, ReplaceRejectedByTheWalKeepsThePreviousBytes) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.attach_wal(dir()).ok());
  const std::string path = "/api/v0/documents/m";
  ASSERT_EQ(service.handle({"PUT", path, prov::to_prov_json_string(tiny_doc("old"))}).status,
            201);
  const std::string before = service.handle({"GET", path, ""}).body;
  {
    fault::ScopedFault armed("storage.write", {.fail_on_nth = 1});
    EXPECT_EQ(service.handle({"PUT", path, prov::to_prov_json_string(tiny_doc("new"))}).status,
              500);
  }
  EXPECT_EQ(service.handle({"GET", path, ""}).body, before);
  EXPECT_TRUE(graphstore::find_prov_node(service.graph(), "m", "ex:old").has_value());
  EXPECT_FALSE(graphstore::find_prov_node(service.graph(), "m", "ex:new").has_value());
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents.at("m"), before);
}

TEST_F(WalTest, BulkWalFailureKeepsTheLoggedPrefixAndRestoresTheRest) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.attach_wal(dir()).ok());
  ASSERT_TRUE(service.put_document("keep", tiny_doc("keep")).ok());
  ASSERT_TRUE(service.put_document("r", tiny_doc("r_old")).ok());
  const auto get = [&service](const std::string& name) {
    return service.handle({"GET", "/api/v0/documents/" + name, ""});
  };
  const std::string keep_before = get("keep").body;
  const std::string r_before = get("r").body;

  std::vector<std::pair<std::string, prov::Document>> batch;
  batch.emplace_back("n1", tiny_doc("n1"));
  batch.emplace_back("n2", tiny_doc("n2"));
  batch.emplace_back("r", tiny_doc("r_new"));
  batch.emplace_back("n3", tiny_doc("n3"));
  {
    // The batch's second append fails: n1 is logged, n2/r/n3 are not.
    fault::ScopedFault armed("storage.write", {.fail_on_nth = 2});
    EXPECT_FALSE(service.put_documents(batch).ok());
  }

  // The logged prefix is served.
  const graphstore::Response n1 = get("n1");
  EXPECT_EQ(n1.status, 200);
  EXPECT_EQ(n1.body, prov::to_prov_json_string(tiny_doc("n1"), false));
  EXPECT_TRUE(graphstore::find_prov_node(service.graph(), "n1", "ex:n1").has_value());
  // Every later name holds its pre-batch bytes, the replaced one included.
  EXPECT_EQ(get("n2").status, 404);
  EXPECT_EQ(get("n3").status, 404);
  EXPECT_EQ(get("r").body, r_before);
  EXPECT_EQ(get("keep").body, keep_before);
  EXPECT_TRUE(graphstore::find_prov_node(service.graph(), "r", "ex:r_old").has_value());
  EXPECT_FALSE(graphstore::find_prov_node(service.graph(), "r", "ex:r_new").has_value());
  EXPECT_FALSE(graphstore::find_prov_node(service.graph(), "n2", "ex:n2").has_value());
  EXPECT_FALSE(graphstore::find_prov_node(service.graph(), "n3", "ex:n3").has_value());

  // Memory equals what recovery reproduces from the log.
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  std::map<std::string, std::string> served;
  for (const std::string& name : service.list_documents()) served[name] = get(name).body;
  EXPECT_EQ(recovered.value().documents, served);
  auto loaded = graphstore::YProvService::load(dir());
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().graph().node_count(), service.graph().node_count());
  EXPECT_EQ(loaded.value().graph().edge_count(), service.graph().edge_count());
}

TEST_F(WalTest, GetBodyEqualsTheRecoveredAndSavedBytes) {
  // Pretty-printed generated documents: the service stores and serves the
  // canonical compact form, and that form is a fixed point of re-parsing,
  // so serving recovered bytes verbatim matches re-serializing them.
  testkit::Rng rng(17);
  testkit::ProvGenOptions opts;
  opts.with_bundles = false;
  std::map<std::string, std::string> served;
  {
    graphstore::YProvService service;
    ASSERT_TRUE(service.attach_wal(dir()).ok());
    for (int i = 0; i < 12; ++i) {
      const std::string name = "d" + std::to_string(i);
      const std::string pretty =
          prov::to_prov_json_string(testkit::gen_prov_document(rng, opts));
      ASSERT_EQ(service.handle({"PUT", "/api/v0/documents/" + name, pretty}).status, 201);
      served[name] = service.handle({"GET", "/api/v0/documents/" + name, ""}).body;
      const auto doc = prov::from_prov_json(json::parse(pretty).take());
      ASSERT_TRUE(doc.ok());
      EXPECT_EQ(served[name], prov::to_prov_json_string(doc.value(), false));
      const auto reparsed = prov::from_prov_json(json::parse(served[name]).take());
      ASSERT_TRUE(reparsed.ok());
      EXPECT_EQ(prov::to_prov_json_string(reparsed.value(), false), served[name]);
    }
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().documents, served);

  graphstore::YProvService reopened;
  ASSERT_TRUE(reopened.attach_wal(dir()).ok());
  const std::string saved = dir() + "_saved";
  ASSERT_TRUE(reopened.save(saved).ok());
  auto loaded = graphstore::YProvService::load(saved);
  fs::remove_all(saved);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  for (const auto& [name, body] : served) {
    EXPECT_EQ(reopened.handle({"GET", "/api/v0/documents/" + name, ""}).body, body) << name;
    EXPECT_EQ(loaded.value().handle({"GET", "/api/v0/documents/" + name, ""}).body, body)
        << name;
  }
}

TEST_F(WalTest, SaveToFreshDirAndLoadRoundTrips) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.put_document("a", tiny_doc("a")).ok());
  ASSERT_TRUE(service.put_document("b", tiny_doc("b")).ok());
  ASSERT_TRUE(service.save(dir()).ok());
  EXPECT_TRUE(store_exists(dir()));

  auto loaded = graphstore::YProvService::load(dir());
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().document_count(), 2u);
  EXPECT_EQ(loaded.value().list_documents(),
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(WalTest, SaveOnAttachedServiceIsCompaction) {
  graphstore::YProvService service;
  ASSERT_TRUE(service.attach_wal(dir()).ok());
  ASSERT_TRUE(service.put_document("a", tiny_doc("a")).ok());
  ASSERT_TRUE(service.save(dir()).ok());
  const wal::Stats stats = service.wal_stats();
  EXPECT_EQ(stats.snapshot_lsn, 1u);
  EXPECT_GE(stats.compactions, 1u);
}

// ------------------------------------------------------------ group commit

TEST_F(WalTest, GroupCommitConcurrentAppendsAreDenseAndAllRecovered) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    Options options;
    options.fsync_policy = FsyncPolicy::kEveryWrite;
    options.compact_every = 0;
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok()) << store.error().to_string();
    DurableStore& wal = *store.value();

    std::vector<std::vector<Lsn>> lsns(kThreads);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, &lsns, &failures, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name = "t" + std::to_string(t) + "-" + std::to_string(i);
          auto lsn = wal.append(put(name, "{}"));
          if (!lsn.ok()) {
            failures.fetch_add(1);
            return;
          }
          lsns[static_cast<std::size_t>(t)].push_back(lsn.value());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);

    // Per-thread LSNs are strictly increasing (append order == log order)…
    std::vector<Lsn> all;
    for (const std::vector<Lsn>& per_thread : lsns) {
      EXPECT_TRUE(std::is_sorted(per_thread.begin(), per_thread.end()));
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    // …and globally the acknowledged LSNs are exactly {1..N}: dense, no
    // gaps, no duplicates, even though fsyncs were shared.
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);

    const Stats stats = wal.stats();
    EXPECT_EQ(stats.last_lsn, all.size());
    EXPECT_EQ(stats.appends, all.size());
    EXPECT_GE(stats.fsyncs, 1u);
    EXPECT_LE(stats.fsyncs, stats.appends);  // batching never adds fsyncs
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().last_lsn, static_cast<Lsn>(kThreads * kPerThread));
  EXPECT_EQ(recovered.value().documents.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recovered.value().truncated_bytes, 0u);
}

TEST_F(WalTest, GroupCommitFsyncFailureNeverAcknowledgesOrReplays) {
  std::map<std::string, std::string> expected;
  {
    Options options;
    options.fsync_policy = FsyncPolicy::kEveryWrite;
    options.compact_every = 0;
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    DurableStore& wal = *store.value();
    for (int i = 0; i < 3; ++i) {
      const Record r = put("ok" + std::to_string(i), "{}");
      ASSERT_TRUE(wal.append(r).ok());
      fold_apply(expected, r);
    }
    {
      fault::ScopedFault armed("storage.fsync", {.fail_on_nth = 1});
      auto failed = wal.append(put("doomed", "{}"));
      ASSERT_FALSE(failed.ok());
    }
    // The failed append rolled its LSN back and truncated its frame; the
    // store keeps accepting writes at the next dense LSN.
    EXPECT_EQ(wal.stats().last_lsn, 3u);
    auto next = wal.append(put("after", "{}"));
    ASSERT_TRUE(next.ok()) << next.error().to_string();
    EXPECT_EQ(next.value(), 4u);
    fold_apply(expected, put("after", "{}"));
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().documents, expected);
  EXPECT_EQ(recovered.value().documents.count("doomed"), 0u);
  EXPECT_EQ(recovered.value().last_lsn, 4u);
}

TEST_F(WalTest, GroupCommitStatsCountAppendsInEveryPolicy) {
  for (const FsyncPolicy policy : {FsyncPolicy::kEveryWrite, FsyncPolicy::kNone}) {
    const std::string subdir = dir() + (policy == FsyncPolicy::kNone ? "-none" : "-ew");
    Options options;
    options.fsync_policy = policy;
    options.compact_every = 0;
    auto store = DurableStore::open(subdir, options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.value()->append(put("d" + std::to_string(i), "{}")).ok());
    }
    const Stats stats = store.value()->stats();
    EXPECT_EQ(stats.appends, 10u);
    EXPECT_EQ(stats.last_lsn, 10u);
    if (policy == FsyncPolicy::kNone) {
      EXPECT_EQ(stats.fsyncs, 0u);
    } else {
      EXPECT_GE(stats.fsyncs, 1u);
      EXPECT_LE(stats.fsyncs, stats.appends);
    }
    fs::remove_all(subdir);
  }
}

TEST_F(WalTest, GroupCommitSurvivesRotationUnderConcurrency) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 40;
  {
    Options options;
    options.fsync_policy = FsyncPolicy::kEveryWrite;
    options.segment_bytes = 256;  // rotate constantly mid-batch
    options.compact_every = 0;
    auto store = DurableStore::open(dir(), options);
    ASSERT_TRUE(store.ok());
    DurableStore& wal = *store.value();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, &failures, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name = "r" + std::to_string(t) + "-" + std::to_string(i);
          if (!wal.append(put(name, "{\"entity\":{}}")).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_GT(wal.stats().segment_count, 1u);
  }
  auto recovered = recover(dir());
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().last_lsn, static_cast<Lsn>(kThreads * kPerThread));
  EXPECT_EQ(recovered.value().documents.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace provml::wal
