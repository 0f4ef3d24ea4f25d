// The durability plane's building blocks: the binary codec, journal frame
// round-trips, the torn-write recovery corpus (truncate/corrupt a golden
// journal at every offset class and recover the valid prefix — never
// crash), the model codec + digest + diff, snapshot round-trip/retention,
// journal replay, the plane's gauge coalescing and group commit, RNG state
// checkpointing, the fault plane's disconnect-window close-out (straddling
// windows must not survive finalize), and the suite CSV's failed column.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/suite.hpp"
#include "durability/codec.hpp"
#include "durability/io.hpp"
#include "durability/journal.hpp"
#include "durability/model_codec.hpp"
#include "durability/plane.hpp"
#include "durability/replay.hpp"
#include "durability/snapshot.hpp"
#include "fault/fault_plane.hpp"
#include "model/system.hpp"
#include "model/transaction.hpp"
#include "model/types.hpp"
#include "sim/simulator.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia::durability {
namespace {

/// A wiped scratch directory under the test's working directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = "test_durability-" + name;
  ensure_dir(dir);
  for (const std::string& file : list_dir(dir)) remove_file(dir + "/" + file);
  return dir;
}

model::System make_system() {
  model::System sys("S");
  model::Component& grp = sys.add_component("Grp", model::cs::kServerGroupT);
  grp.set_property(model::cs::kPropLoad, model::PropertyValue(0.25));
  grp.set_property(model::cs::kPropReplication, model::PropertyValue(2));
  grp.add_port("provide", model::cs::kProvidePortT);
  grp.representation().add_component("Server1", model::cs::kServerT);
  model::Component& user = sys.add_component("User", model::cs::kClientT);
  user.add_port("request", model::cs::kRequestPortT);
  model::Connector& conn = sys.add_connector("Conn", model::cs::kConnT);
  conn.add_role("clientSide", model::cs::kClientRoleT)
      .set_property(model::cs::kPropBandwidth, model::PropertyValue(1e7));
  conn.add_role("serverSide", model::cs::kServerRoleT);
  sys.attach({"User", "request", "Conn", "clientSide"});
  sys.attach({"Grp", "provide", "Conn", "serverSide"});
  return sys;
}

// ---- codec ---------------------------------------------------------------

TEST(CodecTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
}

TEST(CodecTest, ScalarAndStringRoundTrip) {
  Encoder enc;
  enc.u8(7);
  enc.u32(0xDEADBEEFu);
  enc.u64(0x0123456789ABCDEFull);
  enc.i64(-42);
  enc.f64(3.25);
  enc.boolean(true);
  enc.str("hello");
  enc.sim_time(SimTime::millis(1500));

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.u8(), 7);
  EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_DOUBLE_EQ(dec.f64(), 3.25);
  EXPECT_TRUE(dec.boolean());
  EXPECT_EQ(dec.str(), "hello");
  EXPECT_EQ(dec.sim_time(), SimTime::millis(1500));
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, ValueRoundTripAllKinds) {
  const std::vector<events::Value> values = {
      events::Value(true), events::Value(std::int64_t{-9}),
      events::Value(2.5), events::Value(std::string("text")),
      events::Value(util::Symbol::intern("sym"))};
  for (const events::Value& v : values) {
    Encoder enc;
    enc.value(v);
    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.value(), v);
    EXPECT_TRUE(dec.done());
  }
}

TEST(CodecTest, DecoderUnderrunThrowsNeverReadsPast) {
  Encoder enc;
  enc.u32(12);
  Decoder dec(enc.bytes());
  (void)dec.u32();
  EXPECT_THROW(dec.u64(), DurabilityError);
}

// ---- journal frames ------------------------------------------------------

JournalRecord make_op_batch(std::uint64_t lsn) {
  JournalRecord r;
  r.type = RecordType::OpBatch;
  r.lsn = lsn;
  r.at = SimTime::seconds(12);
  r.shard = 3;
  r.repair_index = 9;
  r.compensation = true;
  model::OpRecord op;
  op.kind = model::OpKind::SetProperty;
  op.scope = {"Grp"};
  op.element = "Server1";
  op.property = "load";
  op.value = model::PropertyValue(0.75);
  op.prev_value = model::PropertyValue(0.5);
  op.had_prev = true;
  r.ops.push_back(op);
  return r;
}

TEST(JournalTest, EveryRecordTypeRoundTrips) {
  std::vector<JournalRecord> golden;
  golden.push_back(make_op_batch(1));

  JournalRecord plan;
  plan.type = RecordType::PlanEvent;
  plan.lsn = 2;
  plan.at = SimTime::seconds(13);
  plan.phase = "repair.completed";
  plan.repair_index = 9;
  plan.plan_steps = 4;
  golden.push_back(plan);

  JournalRecord gauges;
  gauges.type = RecordType::GaugeBatch;
  gauges.lsn = 3;
  gauges.at = SimTime::seconds(14);
  gauges.shard = 1;
  gauges.gauges.push_back(
      {SimTime::seconds(13), "Conn", "clientSide", "bandwidth",
       events::Value(5e6)});
  gauges.gauges.push_back(
      {SimTime::seconds(14), "Grp", "", "load", events::Value(0.9)});
  golden.push_back(gauges);

  JournalRecord rng;
  rng.type = RecordType::RngPositions;
  rng.lsn = 4;
  rng.at = SimTime::seconds(15);
  Rng stream(77);
  (void)stream.uniform();
  rng.rng_streams.push_back(stream.save_state());
  golden.push_back(rng);

  JournalRecord mark;
  mark.type = RecordType::SnapshotMark;
  mark.lsn = 5;
  mark.at = SimTime::seconds(16);
  mark.snapshot_lsn = 4;
  mark.snapshot_file = "snap-0000000000000004.arcs";
  mark.model_digest = 0xFEEDFACEull;
  golden.push_back(mark);

  std::vector<std::uint8_t> bytes = journal_header();
  for (const JournalRecord& r : golden) {
    const std::vector<std::uint8_t> frame = encode_frame(r);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }

  const JournalReadResult result = read_journal_bytes(bytes);
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  ASSERT_EQ(result.records.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const JournalRecord& in = golden[i];
    const JournalRecord& out = result.records[i];
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.lsn, in.lsn);
    EXPECT_EQ(out.at, in.at);
    EXPECT_EQ(out.shard, in.shard);
  }
  const JournalRecord& op_out = result.records[0];
  ASSERT_EQ(op_out.ops.size(), 1u);
  EXPECT_EQ(op_out.ops[0].kind, model::OpKind::SetProperty);
  EXPECT_EQ(op_out.ops[0].scope, std::vector<std::string>{"Grp"});
  EXPECT_EQ(op_out.ops[0].value, model::PropertyValue(0.75));
  EXPECT_TRUE(op_out.ops[0].had_prev);
  EXPECT_TRUE(op_out.compensation);
  EXPECT_EQ(result.records[1].phase, "repair.completed");
  ASSERT_EQ(result.records[2].gauges.size(), 2u);
  EXPECT_EQ(result.records[2].gauges[0].sub, "clientSide");
  EXPECT_EQ(result.records[2].gauges[1].value, events::Value(0.9));
  ASSERT_EQ(result.records[3].rng_streams.size(), 1u);
  EXPECT_EQ(result.records[3].rng_streams[0], stream.save_state());
  EXPECT_EQ(result.records[4].snapshot_file, mark.snapshot_file);
}

TEST(JournalTest, BadHeaderThrows) {
  EXPECT_THROW(read_journal_bytes({'A', 'R', 'C', 'X', 1, 0, 0, 0}),
               DurabilityError);
  EXPECT_THROW(read_journal_bytes({'A', 'R'}), DurabilityError);
  // Wrong version is also a hard error — not a torn tail.
  EXPECT_THROW(read_journal_bytes({'A', 'R', 'C', 'J', 9, 0, 0, 0}),
               DurabilityError);
}

// The satellite-3 corpus: a golden journal truncated at every frame
// boundary, truncated mid-frame at every interior byte class, and CRC
// bit-flipped — every case must recover the longest valid prefix with a
// warning, and never throw.
TEST(JournalTest, TornWriteCorpusRecoversValidPrefix) {
  std::vector<std::uint8_t> bytes = journal_header();
  std::vector<std::size_t> boundaries = {bytes.size()};
  for (std::uint64_t lsn = 1; lsn <= 5; ++lsn) {
    const std::vector<std::uint8_t> frame = encode_frame(make_op_batch(lsn));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    boundaries.push_back(bytes.size());
  }

  // Truncation exactly at a frame boundary: a clean (shorter) journal.
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + boundaries[i]);
    const JournalReadResult r = read_journal_bytes(cut);
    EXPECT_FALSE(r.torn);
    EXPECT_EQ(r.records.size(), i);
    EXPECT_EQ(r.valid_bytes, cut.size());
    if (i > 0) {
      EXPECT_EQ(r.records.back().lsn, i);
    }
  }

  // Truncation at every mid-frame byte: torn, recovered to the last
  // complete frame, warning set.
  for (std::size_t cut_at = boundaries.front() + 1; cut_at < bytes.size();
       ++cut_at) {
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut_at) {
      ++whole;
    }
    if (boundaries[whole] == cut_at) continue;  // boundary: covered above
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + cut_at);
    const JournalReadResult r = read_journal_bytes(cut);
    EXPECT_TRUE(r.torn) << "offset " << cut_at;
    EXPECT_FALSE(r.warning.empty());
    EXPECT_EQ(r.records.size(), whole) << "offset " << cut_at;
    EXPECT_EQ(r.valid_bytes, boundaries[whole]);
  }

  // A flipped bit inside frame 3's CRC: frames 1-2 recovered, the rest is
  // unreachable (recovery cannot vouch for anything past a bad frame).
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[boundaries[2] + 4] ^= 0x01;  // CRC field of frame 3
  const JournalReadResult r = read_journal_bytes(corrupt);
  EXPECT_TRUE(r.torn);
  EXPECT_NE(r.warning.find("CRC"), std::string::npos);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.valid_bytes, boundaries[2]);

  // A flipped payload bit is equally fatal for that frame.
  corrupt = bytes;
  corrupt[boundaries[2] + 12] ^= 0x80;
  const JournalReadResult p = read_journal_bytes(corrupt);
  EXPECT_TRUE(p.torn);
  EXPECT_EQ(p.records.size(), 2u);
}

// ---- model codec ---------------------------------------------------------

TEST(ModelCodecTest, RoundTripPreservesDigestAndDiffsClean) {
  const model::System sys = make_system();
  const std::vector<std::uint8_t> bytes = encode_system(sys);
  const auto decoded = decode_system(bytes);
  EXPECT_EQ(system_digest(*decoded), system_digest(sys));
  EXPECT_EQ(diff_systems(sys, *decoded), "");
  // Re-encoding the decoded model is byte-stable (canonical order).
  EXPECT_EQ(encode_system(*decoded), bytes);
}

TEST(ModelCodecTest, DiffNamesTheDivergence) {
  const model::System a = make_system();
  model::System b = make_system();
  b.component(util::Symbol::intern("Grp"))
      .set_property(model::cs::kPropLoad, model::PropertyValue(0.99));
  EXPECT_NE(system_digest(a), system_digest(b));
  const std::string diff = diff_systems(a, b);
  EXPECT_NE(diff.find("Grp"), std::string::npos);
}

// ---- snapshots -----------------------------------------------------------

Snapshot make_snapshot(std::uint64_t lsn) {
  const model::System sys = make_system();
  Snapshot snap;
  snap.lsn = lsn;
  snap.at = SimTime::seconds(60);
  ShardSnapshot shard;
  shard.shard = 0;
  shard.name = "solo";
  shard.model = encode_system(sys);
  shard.model_digest = system_digest(sys);
  shard.gauges.push_back({"g-load", true, false, SimTime::seconds(59)});
  shard.health = 1;
  Rng stream(5);
  (void)stream.normal();  // leaves a Box-Muller spare in the state
  shard.rng_streams.push_back(stream.save_state());
  shard.repairs_committed = 2;
  snap.shards.push_back(std::move(shard));
  return snap;
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  const Snapshot snap = make_snapshot(41);
  const Snapshot out = decode_snapshot(encode_snapshot(snap));
  EXPECT_EQ(out.lsn, snap.lsn);
  EXPECT_EQ(out.at, snap.at);
  ASSERT_EQ(out.shards.size(), 1u);
  const ShardSnapshot& shard = out.shards[0];
  EXPECT_EQ(shard.name, "solo");
  EXPECT_EQ(shard.model, snap.shards[0].model);
  EXPECT_EQ(shard.model_digest, snap.shards[0].model_digest);
  ASSERT_EQ(shard.gauges.size(), 1u);
  EXPECT_EQ(shard.gauges[0].id, "g-load");
  EXPECT_TRUE(shard.gauges[0].live);
  EXPECT_EQ(shard.health, 1);
  EXPECT_EQ(shard.rng_streams, snap.shards[0].rng_streams);
  EXPECT_EQ(shard.repairs_committed, 2u);
}

TEST(SnapshotTest, WriteListLoadAndPrune) {
  const std::string dir = scratch_dir("snapshots");
  for (std::uint64_t lsn : {9ull, 120ull, 7ull}) {
    write_snapshot(dir, make_snapshot(lsn));
  }
  // Lexical order is LSN order (zero-padded names).
  const std::vector<std::string> names = list_snapshots(dir);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names.front(), snapshot_file_name(7));
  EXPECT_EQ(names.back(), snapshot_file_name(120));

  const Snapshot loaded = load_snapshot(dir + "/" + names.back());
  EXPECT_EQ(loaded.lsn, 120u);

  prune_snapshots(dir, 2);
  const std::vector<std::string> kept = list_snapshots(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.front(), snapshot_file_name(9));  // oldest dropped
}

// ---- replay --------------------------------------------------------------

TEST(ReplayTest, OpAndGaugeBatchesReconstructTheModel) {
  model::System live = make_system();

  // Drive the live model through a transaction, capturing its op records
  // the same way the repair engine journals a commit.
  model::Transaction txn(live);
  txn.add_component({"Grp"}, "Server2", model::cs::kServerT);
  txn.set_property({}, model::ElementKind::Component, "Grp", "",
                   model::cs::kPropReplication, model::PropertyValue(3));
  txn.commit();
  const std::vector<model::OpRecord> ops = txn.records();

  JournalRecord batch;
  batch.type = RecordType::OpBatch;
  batch.lsn = 1;
  batch.at = SimTime::seconds(10);
  batch.ops = ops;

  JournalRecord gauges;
  gauges.type = RecordType::GaugeBatch;
  gauges.lsn = 2;
  gauges.at = SimTime::seconds(11);
  gauges.gauges.push_back(
      {SimTime::seconds(11), "Grp", "", model::cs::kPropLoad,
       events::Value(0.5)});
  live.component(util::Symbol::intern("Grp"))
      .set_property(model::cs::kPropLoad, model::PropertyValue(0.5));

  model::System replayed = make_system();
  const ReplayStats stats =
      replay_journal(replayed, {batch, gauges}, ReplayOptions{});
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.ops_applied, ops.size());
  EXPECT_EQ(stats.gauge_writes, 1u);
  EXPECT_EQ(stats.last_lsn, 2u);
  EXPECT_EQ(diff_systems(live, replayed), "");
  EXPECT_EQ(system_digest(live), system_digest(replayed));
}

TEST(ReplayTest, CursorStopsAtLsnAndTime) {
  model::System base = make_system();
  const std::uint64_t untouched = system_digest(base);

  JournalRecord gauges;
  gauges.type = RecordType::GaugeBatch;
  gauges.lsn = 2;
  gauges.at = SimTime::seconds(50);
  gauges.gauges.push_back(
      {SimTime::seconds(50), "Grp", "", model::cs::kPropLoad,
       events::Value(0.8)});

  model::System at_lsn_1 = make_system();
  ReplayOptions to_lsn_1;
  to_lsn_1.to_lsn = 1;
  replay_journal(at_lsn_1, {gauges}, to_lsn_1);
  EXPECT_EQ(system_digest(at_lsn_1), untouched);

  model::System before = make_system();
  ReplayOptions to_t40;
  to_t40.to_time = SimTime::seconds(40);
  replay_journal(before, {gauges}, to_t40);
  EXPECT_EQ(system_digest(before), untouched);
}

TEST(ReplayTest, GaugeDeltaForMissingElementThrows) {
  model::System sys = make_system();
  JournalRecord gauges;
  gauges.type = RecordType::GaugeBatch;
  gauges.lsn = 1;
  gauges.gauges.push_back(
      {SimTime::zero(), "NoSuchElement", "", "load", events::Value(1.0)});
  EXPECT_THROW(replay_journal(sys, {gauges}), DurabilityError);
}

// ---- the plane -----------------------------------------------------------

model::OpRecord set_load_op(double value, double prev) {
  model::OpRecord op;
  op.kind = model::OpKind::SetProperty;
  op.element = "Grp";
  op.property = "load";
  op.value = model::PropertyValue(value);
  op.prev_value = model::PropertyValue(prev);
  op.had_prev = true;
  return op;
}

TEST(PlaneTest, GaugeDeltasCoalescePerKeyWithinABatch) {
  const std::string dir = scratch_dir("coalesce");
  Options opt;
  opt.dir = dir;
  {
    DurabilityPlane plane(opt);
    const util::Symbol grp = util::Symbol::intern("Grp");
    const util::Symbol none;
    const util::Symbol load = util::Symbol::intern("load");
    const util::Symbol repl = util::Symbol::intern("replication");
    plane.on_gauge_applied(0, SimTime::seconds(1), grp, none, load,
                           events::Value(0.1));
    plane.on_gauge_applied(0, SimTime::seconds(2), grp, none, repl,
                           events::Value(2));
    // Repeat writes to the first key: only the newest survives the batch.
    plane.on_gauge_applied(0, SimTime::seconds(3), grp, none, load,
                           events::Value(0.2));
    plane.on_gauge_applied(0, SimTime::seconds(4), grp, none, load,
                           events::Value(0.3));
    plane.flush(SimTime::seconds(5));
    plane.close(SimTime::seconds(5));
  }
  const JournalReadResult r = read_journal(dir + "/" + kJournalFile);
  ASSERT_EQ(r.records.size(), 1u);
  const JournalRecord& batch = r.records[0];
  EXPECT_EQ(batch.type, RecordType::GaugeBatch);
  ASSERT_EQ(batch.gauges.size(), 2u);  // two keys, first-seen order
  EXPECT_EQ(batch.gauges[0].property, "load");
  EXPECT_EQ(batch.gauges[0].value, events::Value(0.3));
  EXPECT_EQ(batch.gauges[0].at, SimTime::seconds(4));
  EXPECT_EQ(batch.gauges[1].property, "replication");
}

TEST(PlaneTest, SyncIntervalDoesNotChangeJournalBytes) {
  // Group commit moves when bytes become durable, never what they are.
  auto run = [](SimTime interval, const std::string& dir) {
    Options opt;
    opt.dir = scratch_dir(dir);
    opt.sync_interval = interval;
    DurabilityPlane plane(opt);
    for (int i = 0; i < 20; ++i) {
      plane.on_ops(0, SimTime::seconds(i), static_cast<std::uint64_t>(i),
                   false, {set_load_op(0.1 * i, 0.1 * (i - 1))});
    }
    plane.close(SimTime::seconds(20));
    return read_file(opt.dir + "/" + kJournalFile);
  };
  const auto every_batch = run(SimTime::zero(), "sync-every");
  const auto grouped = run(SimTime::seconds(30), "sync-grouped");
  EXPECT_EQ(every_batch, grouped);
}

TEST(PlaneTest, AbandonDropsThePendingTail) {
  // abandon() is the crash seam's kill -9: whatever was not yet committed
  // by a group-commit point must not reach the file.
  const std::string dir = scratch_dir("abandon");
  Options opt;
  opt.dir = dir;
  opt.sync_interval = SimTime::seconds(1000);  // only the first batch syncs
  {
    DurabilityPlane plane(opt);
    plane.on_ops(0, SimTime::seconds(1), 0, false, {set_load_op(0.1, 0.0)});
    plane.on_ops(0, SimTime::seconds(2), 1, false, {set_load_op(0.2, 0.1)});
    plane.on_ops(0, SimTime::seconds(3), 2, false, {set_load_op(0.3, 0.2)});
    plane.abandon();
  }
  const JournalReadResult r = read_journal(dir + "/" + kJournalFile);
  EXPECT_FALSE(r.torn);
  ASSERT_EQ(r.records.size(), 1u);  // batches 2-3 died in the pending buffer
  EXPECT_EQ(r.records[0].lsn, 1u);
}

TEST(PlaneTest, CatchupVerifiesAndDivergenceThrows) {
  const std::string dir = scratch_dir("catchup");
  Options opt;
  opt.dir = dir;
  {
    DurabilityPlane plane(opt);
    plane.on_ops(0, SimTime::seconds(1), 0, false, {set_load_op(0.1, 0.0)});
    plane.on_ops(0, SimTime::seconds(2), 1, false, {set_load_op(0.2, 0.1)});
    plane.close(SimTime::seconds(2));
  }
  {
    // A faithful re-execution replays both frames and runs past the
    // reference without complaint.
    DurabilityPlane plane(opt);
    EXPECT_TRUE(plane.in_catchup());
    EXPECT_EQ(plane.reference_last_lsn(), 2u);
    EXPECT_EQ(plane.reference_horizon(), SimTime::seconds(2));
    plane.on_ops(0, SimTime::seconds(1), 0, false, {set_load_op(0.1, 0.0)});
    plane.on_ops(0, SimTime::seconds(2), 1, false, {set_load_op(0.2, 0.1)});
    EXPECT_FALSE(plane.in_catchup());
    plane.on_ops(0, SimTime::seconds(3), 2, false, {set_load_op(0.3, 0.2)});
    plane.close(SimTime::seconds(3));
  }
  {
    // A diverging re-execution (different op value) must throw, not fork
    // history.
    DurabilityPlane plane(opt);
    EXPECT_TRUE(plane.in_catchup());
    EXPECT_THROW(plane.on_ops(0, SimTime::seconds(1), 0, false,
                              {set_load_op(0.9, 0.0)}),
                 RecoveryError);
  }
}

TEST(PlaneTest, TornTailIsTruncatedWithWarningOnReopen) {
  const std::string dir = scratch_dir("torn-reopen");
  Options opt;
  opt.dir = dir;
  {
    DurabilityPlane plane(opt);
    plane.on_ops(0, SimTime::seconds(1), 0, false, {set_load_op(0.1, 0.0)});
    plane.on_ops(0, SimTime::seconds(2), 1, false, {set_load_op(0.2, 0.1)});
    plane.close(SimTime::seconds(2));
  }
  // Tear the file mid-frame, as a crash during a write would.
  std::vector<std::uint8_t> bytes = read_file(dir + "/" + kJournalFile);
  bytes.resize(bytes.size() - 3);
  write_file_atomic(dir + "/" + kJournalFile, bytes);
  {
    DurabilityPlane plane(opt);
    EXPECT_FALSE(plane.reference_warning().empty());
    EXPECT_EQ(plane.reference_last_lsn(), 1u);  // tail truncated to frame 1
    plane.abandon();
  }
}

// ---- RNG checkpointing ---------------------------------------------------

TEST(RngStateTest, SaveRestoreResumesTheExactSequence) {
  Rng a(123);
  (void)a.uniform();
  (void)a.normal();  // park a Box-Muller spare
  const Rng::State mid = a.save_state();
  std::vector<double> tail;
  for (int i = 0; i < 8; ++i) tail.push_back(a.normal());

  Rng b(999);  // different position entirely
  b.restore_state(mid);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.normal(), tail[i]);
}

// ---- fault plane window close-out (satellite pin) ------------------------

TEST(FaultPlaneWindowTest, ExpiredWindowsDecrementAndFinalizeClosesStragglers) {
  sim::Simulator sim;
  fault::FaultProfile profile;
  profile.enabled = true;
  profile.seed = 42;
  profile.monitoring.channel_disconnect = 1.0;  // every touch opens a window
  profile.monitoring.disconnect_min = SimTime::seconds(5);
  profile.monitoring.disconnect_max = SimTime::seconds(5);
  fault::FaultPlane plane(sim, profile);

  const util::Symbol g1 = util::Symbol::intern("gauge-1");
  const util::Symbol g2 = util::Symbol::intern("gauge-2");
  EXPECT_TRUE(plane.channel_down(g1));
  EXPECT_TRUE(plane.channel_down(g2));
  EXPECT_EQ(plane.stats().channels_disconnected, 2u);

  // Touching a channel after its window lapsed closes it (the gauge drops)
  // before the hazard immediately opens a fresh one.
  sim.run_until(SimTime::seconds(6));
  EXPECT_TRUE(plane.channel_down(g1));
  EXPECT_EQ(plane.stats().channel_disconnects, 3u);  // new window opened
  EXPECT_EQ(plane.stats().channels_disconnected, 2u);

  // finalize closes the never-touched straggler and the fresh window both:
  // end-of-run stats must not report open windows past the horizon.
  plane.finalize(SimTime::seconds(6));
  EXPECT_EQ(plane.stats().channels_disconnected, 0u);
  plane.finalize(SimTime::seconds(6));  // idempotent
  EXPECT_EQ(plane.stats().channels_disconnected, 0u);
  // Counters (not gauges) are untouched by finalize.
  EXPECT_EQ(plane.stats().channel_disconnects, 3u);
}

// ---- suite CSV failed column (satellite pin) -----------------------------

TEST(SuiteCsvTest, FailedCaseKeepsWallClockAndQuotesError) {
  core::SuiteOutcome ok;
  ok.label = "cell-ok";
  ok.scenario = "lossy-grid";
  ok.fault_seed = 7;
  ok.wall_seconds = 1.5;
  ok.sim_seconds = 600.0;

  core::SuiteOutcome failed;
  failed.label = "cell-crash";
  failed.scenario = "lossy-grid";
  failed.fault_seed = 8;
  failed.wall_seconds = 0.25;
  failed.sim_seconds = 0.0;
  failed.error = "plan step exploded, \"twice\"";

  std::ostringstream out;
  core::write_suite_csv(out, {ok, failed});
  const std::string csv = out.str();

  EXPECT_NE(csv.find("failed"), std::string::npos);     // header column
  EXPECT_NE(csv.find("cell-crash"), std::string::npos); // row not dropped
  EXPECT_NE(csv.find("0.25"), std::string::npos);       // wall clock kept
  // The comma-and-quote error text arrives CSV-quoted.
  EXPECT_NE(csv.find("\"plan step exploded, \"\"twice\"\"\""),
            std::string::npos);
}

}  // namespace
}  // namespace arcadia::durability
