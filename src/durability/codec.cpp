#include "durability/codec.hpp"

#include <array>

#include "durability/io.hpp"

namespace arcadia::durability {

namespace {

// Value tags. Symbols and strings are distinct tags so decode restores the
// exact variant alternative (equality would hold either way, but gauge
// hot paths rely on symbol-typed values staying symbols).
constexpr std::uint8_t kTagBool = 0;
constexpr std::uint8_t kTagInt = 1;
constexpr std::uint8_t kTagDouble = 2;
constexpr std::uint8_t kTagSymbol = 3;
constexpr std::uint8_t kTagString = 4;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::value(const events::Value& v) {
  if (v.is_bool()) {
    u8(kTagBool);
    boolean(v.as_bool());
  } else if (v.is_int()) {
    u8(kTagInt);
    i64(v.as_int());
  } else if (v.is_double()) {
    u8(kTagDouble);
    f64(v.as_double());
  } else if (v.is_symbol()) {  // before is_string(): symbols satisfy both
    u8(kTagSymbol);
    str(v.as_symbol().view());
  } else {
    u8(kTagString);
    str(v.as_string());
  }
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) {
    throw DurabilityError("decode underrun: need " + std::to_string(n) +
                          " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t Decoder::u8() {
  need(1);
  return *p_++;
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
  return v;
}

double Decoder::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Decoder::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

events::Value Decoder::value() {
  switch (u8()) {
    case kTagBool:
      return events::Value(boolean());
    case kTagInt:
      return events::Value(i64());
    case kTagDouble:
      return events::Value(f64());
    case kTagSymbol:
      // Re-interning restores symbol identity; ids are process-local, the
      // text is the durable form.
      return events::Value(util::Symbol::intern(str()));
    case kTagString:
      return events::Value(str());
    default:
      throw DurabilityError("decode: unknown Value tag");
  }
}

std::uint64_t Decoder::in_range(std::uint64_t v, std::uint64_t lo,
                                std::uint64_t hi, const char* what) {
  if (v < lo || v > hi) {
    throw DurabilityError(std::string("decode: ") + what + " " +
                          std::to_string(v) + " outside [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]");
  }
  return v;
}

void put_header(Encoder& enc, const char (&magic)[4], std::uint32_t version) {
  for (const char c : magic) enc.u8(static_cast<std::uint8_t>(c));
  enc.u32(version);
}

void check_header(Decoder& dec, const char (&magic)[4], std::uint32_t version,
                  const std::string& what) {
  bool ours = dec.remaining() >= 8;
  for (const char c : magic) {
    ours = ours && dec.u8() == static_cast<std::uint8_t>(c);
  }
  if (!ours) throw DurabilityError("not a " + what + " (bad magic or size)");
  const std::uint32_t found = dec.u32();
  if (found != version) {
    throw DurabilityError("unsupported " + what + " version " +
                          std::to_string(found) + " (expected " +
                          std::to_string(version) + ")");
  }
}

Decoder open_container(const std::vector<std::uint8_t>& bytes,
                       const char (&magic)[4], std::uint32_t version,
                       const std::string& what) {
  Decoder dec(bytes.data(), bytes.size() < 4 ? 0 : bytes.size() - 4);
  check_header(dec, magic, version, what);
  Decoder tail(bytes.data() + bytes.size() - 4, 4);
  if (crc32(bytes.data(), bytes.size() - 4) != tail.u32()) {
    throw DurabilityError(what + " CRC mismatch");
  }
  return dec;
}

template <>
struct EnumRange<model::OpKind> {
  static constexpr auto first = model::OpKind::AddComponent,
                        last = model::OpKind::SetProperty;
};
template <>
struct EnumRange<model::ElementKind> {
  static constexpr auto first = model::ElementKind::Component,
                        last = model::ElementKind::System;
};

void fields(auto& io, model::Attachment& a) {
  auto& [component, port, connector, role] = a;
  io(component, port, connector, role);
}

void fields(auto& io, model::OpRecord& op) {
  auto& [kind, scope, element, sub, type_name, property, value, attachment,
         element_kind, prev_value, had_prev] = op;
  io(kind, scope, element, sub, type_name, property, value, attachment,
     element_kind, prev_value, had_prev);
}

void fields(auto& io, Rng::State& state) {
  auto& [s, have_spare, spare] = state;
  static_assert(sizeof(s) == 4 * sizeof(std::uint64_t), "list every word");
  io(s[0], s[1], s[2], s[3], have_spare, spare);
}

template void fields<Encoder>(Encoder&, model::OpRecord&);
template void fields<Decoder>(Decoder&, model::OpRecord&);
template void fields<Encoder>(Encoder&, Rng::State&);
template void fields<Decoder>(Decoder&, Rng::State&);

}  // namespace arcadia::durability
