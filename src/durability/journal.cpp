#include "durability/journal.hpp"

namespace arcadia::durability {

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::OpBatch:
      return "op-batch";
    case RecordType::PlanEvent:
      return "plan-event";
    case RecordType::GaugeBatch:
      return "gauge-batch";
    case RecordType::RngPositions:
      return "rng-positions";
    case RecordType::SnapshotMark:
      return "snapshot-mark";
  }
  return "unknown";
}

template <>
struct EnumRange<RecordType> {
  static constexpr auto first = RecordType::OpBatch,
                        last = RecordType::SnapshotMark;
};

void fields(auto& io, GaugeDelta& g) {
  auto& [at, element, sub, property, value] = g;
  io(at, element, sub, property, value);
}

/// The payload of a frame: a common header, then only the members of the
/// record's own type.
void fields(auto& io, JournalRecord& r) {
  auto& [type, lsn, at, shard, repair_index, compensation, ops, phase,
         plan_steps, gauges, rng_streams, snapshot_lsn, snapshot_file,
         model_digest] = r;
  io(type, lsn, at, shard);
  switch (type) {
    case RecordType::OpBatch:
      io(repair_index, compensation, ops);
      break;
    case RecordType::PlanEvent:
      io(phase, repair_index, plan_steps);
      break;
    case RecordType::GaugeBatch:
      io(gauges);
      break;
    case RecordType::RngPositions:
      io(rng_streams);
      break;
    case RecordType::SnapshotMark:
      io(snapshot_lsn, snapshot_file, model_digest);
      break;
  }
}

std::vector<std::uint8_t> encode_frame(const JournalRecord& record) {
  Encoder payload;
  payload(record);

  Encoder frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.bytes().data(), payload.size()));
  frame.raw(payload.bytes());
  return frame.take();
}

std::vector<std::uint8_t> journal_header() {
  Encoder enc;
  put_header(enc, kJournalMagic, kJournalVersion);
  return enc.take();
}

JournalReadResult read_journal_bytes(const std::vector<std::uint8_t>& bytes) {
  Decoder header(bytes);
  check_header(header, kJournalMagic, kJournalVersion, "journal");

  JournalReadResult result;
  result.valid_bytes = kJournalHeaderSize;
  std::size_t pos = kJournalHeaderSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      result.torn = true;
      result.warning = "torn frame header at offset " + std::to_string(pos);
      break;
    }
    Decoder head(bytes.data() + pos, 8);
    const std::uint32_t len = head.u32();
    const std::uint32_t crc = head.u32();
    if (bytes.size() - pos - 8 < len) {
      result.torn = true;
      result.warning = "torn frame payload at offset " + std::to_string(pos) +
                       " (need " + std::to_string(len) + " bytes)";
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 8;
    if (crc32(payload, len) != crc) {
      result.torn = true;
      result.warning = "CRC mismatch at offset " + std::to_string(pos);
      break;
    }
    JournalRecord record;
    try {
      Decoder dec(payload, len);
      dec(record);
    } catch (const DurabilityError& e) {
      // A CRC-valid but undecodable payload means a format bug or version
      // skew, not a torn write — still refuse to apply it.
      result.torn = true;
      result.warning = std::string("undecodable frame at offset ") +
                       std::to_string(pos) + ": " + e.what();
      break;
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  return result;
}

JournalReadResult read_journal(const std::string& path) {
  return read_journal_bytes(read_file(path));
}

}  // namespace arcadia::durability
