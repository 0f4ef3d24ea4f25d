#include "durability/snapshot.hpp"

#include "durability/io.hpp"

namespace arcadia::durability {

std::string snapshot_file_name(std::uint64_t lsn) {
  std::string digits = std::to_string(lsn);
  if (digits.size() < 16) digits.insert(0, 16 - digits.size(), '0');
  return "snap-" + digits + ".arcs";
}

void fields(auto& io, GaugeState& g) {
  auto& [id, live, suspect, last_report] = g;
  io(id, live, suspect, last_report);
}

void fields(auto& io, ShardSnapshot& s) {
  auto& [shard, name, model, model_digest, gauges, health, rng_streams,
         repairs_committed] = s;
  io(shard, name, model, model_digest, gauges, health, rng_streams,
     repairs_committed);
}

void fields(auto& io, Snapshot& snap) {
  auto& [lsn, at, shards] = snap;
  io(lsn, at, shards);
}

// The trailing CRC detects a torn snapshot (possible only via the .tmp
// path — the rename is atomic) on load.
std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  return encode_container(kSnapshotMagic, kSnapshotVersion, snap);
}

Snapshot decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  return decode_container<Snapshot>(bytes, kSnapshotMagic, kSnapshotVersion,
                                    "snapshot");
}

std::string write_snapshot(const std::string& dir, const Snapshot& snap,
                           const std::function<void()>& between) {
  const std::string name = snapshot_file_name(snap.lsn);
  write_file_atomic(dir + "/" + name, encode_snapshot(snap), between);
  return name;
}

Snapshot load_snapshot(const std::string& path) {
  return decode_snapshot(read_file(path));
}

std::vector<std::string> list_snapshots(const std::string& dir) {
  std::vector<std::string> snaps;
  for (const auto& name : list_dir(dir)) {
    if (name.starts_with("snap-") && name.ends_with(".arcs")) {
      snaps.push_back(name);
    }
  }
  return snaps;  // list_dir sorts; zero-padded names sort by LSN
}

void prune_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<std::string> snaps = list_snapshots(dir);
  if (snaps.size() <= keep) return;
  for (std::size_t i = 0; i + keep < snaps.size(); ++i) {
    remove_file(dir + "/" + snaps[i]);
  }
}

}  // namespace arcadia::durability
