// Binary codec for the durability plane: little-endian fixed-width scalars,
// length-prefixed strings, tagged Values, and records. The encoding is
// deliberately positional and versioned at the container level (journal /
// snapshot / manifest headers carry the format version) rather than
// per-field, keeping frames compact — a steady-state gauge delta is a few
// dozen bytes.
//
// Each record's layout is one field list, run by Encoder (`enc(x)` writes)
// and Decoder (`dec(x)` reads in place). Its structured binding is the
// guard: a struct member the list misses breaks the binding's count, a
// compile error. Lists sit in namespace arcadia::durability beside their
// format (the Io argument brings them into lookup):
//
//   void fields(auto& io, GaugeState& g) {
//     auto& [id, live, suspect, last_report] = g;
//     io(id, live, suspect, last_report);
//   }
//
// put/get fix each type's width once: bool, u8 and enums (checked against
// EnumRange) 1 byte; u32 and int 4; u64, size_t, i64, double and SimTime
// (µs) 8; DataSize (bytes) and Bandwidth (bps) as doubles; strings and
// vectors a u32 length (a vector's refused above the bytes left), then
// the elements.
//
// Determinism note: symbols encode as their interned TEXT, never their
// process-local ids, so journal bytes are stable across processes and the
// crash-recovery oracle can byte-compare journals from different runs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "durability/io.hpp"
#include "events/value.hpp"
#include "model/transaction.hpp"
#include "util/deterministic_rng.hpp"
#include "util/units.hpp"

namespace arcadia::durability {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range; the journal
/// frames every payload with one.
std::uint32_t crc32(const void* data, std::size_t size);

/// FNV-1a 64-bit — the model digest hash (cheap, dependency-free, stable).
std::uint64_t fnv1a(const void* data, std::size_t size);
inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

/// The valid range of an enum stored as a u8; specialize it beside the list
/// that stores the enum: `static constexpr auto first = E::A, last = E::Z;`.
template <class E>
struct EnumRange;

/// Append-only byte builder.
class Encoder {
 public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  /// Write each value at its fixed width, or through its field list.
  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void value(const events::Value& v);
  void raw(const std::vector<std::uint8_t>& bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

 private:
  void put(bool v) { boolean(v); }
  void put(std::uint8_t v) { u8(v); }
  void put(std::uint32_t v) { u32(v); }
  void put(std::uint64_t v) { u64(v); }
  void put(std::int64_t v) { i64(v); }
  void put(int v) { u32(static_cast<std::uint32_t>(v)); }
  void put(double v) { f64(v); }
  void put(DataSize v) { f64(v.as_bytes()); }
  void put(Bandwidth v) { f64(v.as_bps()); }
  void put(SimTime v) { i64(v.as_micros()); }
  void put(const std::string& v) { str(v); }
  void put(const events::Value& v) { value(v); }
  template <class E>
    requires std::is_enum_v<E>
  void put(const E& v) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <class T>
  void put(const std::vector<T>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
  template <class T>
  void put(const T& v) {
    fields(*this, const_cast<T&>(v));  // an Encoder only reads the members
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over an immutable byte range; every underrun or
/// bad tag throws DurabilityError (callers treat that as a torn/corrupt
/// record, never as partial data).
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : Decoder(bytes.data(), bytes.size()) {}

  bool done() const { return p_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  /// Read each value in place, at its fixed width or through its list.
  template <class... Ts>
  void operator()(Ts&... values) {
    (get(values), ...);
  }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  events::Value value();

 private:
  void get(bool& v) { v = boolean(); }
  void get(std::uint8_t& v) { v = u8(); }
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(std::int64_t& v) { v = i64(); }
  void get(int& v) { v = static_cast<int>(u32()); }
  void get(double& v) { v = f64(); }
  void get(DataSize& v) { v = DataSize::bytes(f64()); }
  void get(Bandwidth& v) { v = Bandwidth::bps(f64()); }
  void get(SimTime& v) { v = SimTime::micros(i64()); }
  void get(std::string& v) { v = str(); }
  void get(events::Value& v) { v = value(); }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& v) {
    using Range = EnumRange<E>;
    v = static_cast<E>(in_range(u8(), static_cast<std::uint8_t>(Range::first),
                                static_cast<std::uint8_t>(Range::last),
                                "enum byte"));
  }
  template <class T>
  void get(std::vector<T>& v) {
    const std::uint32_t n = u32();  // every element takes at least a byte
    v.resize(in_range(n, 0, remaining(), "count"));
    for (T& e : v) get(e);
  }
  template <class T>
  void get(T& v) {
    fields(*this, v);
  }

  /// `v`, or a DurabilityError naming `what` when outside [lo, hi].
  std::uint64_t in_range(std::uint64_t v, std::uint64_t lo, std::uint64_t hi,
                         const char* what);
  void need(std::size_t n) const;

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Field lists shared by the journal and the snapshot (in codec.cpp).
void fields(auto& io, model::OpRecord& op);
void fields(auto& io, Rng::State& state);

/// The header every durable file starts with: 4-byte magic, u32 version.
void put_header(Encoder& enc, const char (&magic)[4], std::uint32_t version);
/// Reads and checks it; `what` names the file in every error.
void check_header(Decoder& dec, const char (&magic)[4], std::uint32_t version,
                  const std::string& what);

/// A self-checking file (snapshot, manifest): the header, the payload's
/// fields, then a CRC-32 of every byte before it.
template <class T>
std::vector<std::uint8_t> encode_container(const char (&magic)[4],
                                           std::uint32_t version,
                                           const T& payload) {
  Encoder enc;
  put_header(enc, magic, version);
  enc(payload);
  enc.u32(crc32(enc.bytes().data(), enc.size()));
  return enc.take();
}

/// Checks a container's header and CRC and returns a Decoder over its
/// payload.
Decoder open_container(const std::vector<std::uint8_t>& bytes,
                       const char (&magic)[4], std::uint32_t version,
                       const std::string& what);

template <class T>
T decode_container(const std::vector<std::uint8_t>& bytes,
                   const char (&magic)[4], std::uint32_t version,
                   const std::string& what) {
  Decoder dec = open_container(bytes, magic, version, what);
  T payload{};
  dec(payload);
  if (!dec.done()) throw DurabilityError("trailing bytes in " + what);
  return payload;
}

}  // namespace arcadia::durability
