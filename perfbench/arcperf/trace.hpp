// In-memory span recorder for the traced run. Spans wrap the benchmark's own
// calls into arcadia's public entry points (and the Translator decorator);
// nothing inside the program is instrumented. A span's self time is its
// duration minus its children's. Run spans belong to the "unattributed"
// layer; the wall the program's own stats timers report (constraint checks,
// fleet sweeps, the durability plane) is credited out of it to the layer
// owning the timer, since those timers only tick inside run spans.
//
// Single-threaded by contract: spans are opened only from the benchmark's
// main thread (fleet tenants never get the decorator).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace arcperf {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  struct Span {
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int case_id = 0;
  };

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer, int case_id)
        : t_(t), id_(t.open(name, layer, case_id)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  int open(const char* name, const char* layer, int case_id) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_s = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.case_id = case_id;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }

  /// Move `seconds` of run-span time from "unattributed" to `layer` (a
  /// program-side wall timer that ticked inside run spans).
  void credit(const std::string& layer, double seconds) {
    if (enabled_ && seconds > 0.0) credits_[layer] += seconds;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over every span recorded.
  std::map<std::string, double> layer_self_seconds() const;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write_chrome(const std::string& path) const;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> credits_;
};

}  // namespace arcperf
