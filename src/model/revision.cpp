#include "model/revision.hpp"

#include <atomic>

namespace arcadia::model {

namespace {
// Start at 1 so a default-initialised "last seen" stamp of 0 always reads
// as stale.
std::atomic<std::uint64_t> g_property_clock{1};
std::atomic<std::uint64_t> g_structure_clock{1};
// This thread's open ClockView, if any: its clocks start at the view's
// bases and count this thread's bumps. Closed, a bump pays one test.
struct View {
  bool open = false;
  std::uint64_t structure = 0;
  std::uint64_t property = 0;
};
thread_local View t_view;
}  // namespace

std::uint64_t property_clock() {
  if (t_view.open) return t_view.property;
  return g_property_clock.load(std::memory_order_relaxed);
}

std::uint64_t bump_property_clock() {
  if (t_view.open) ++t_view.property;
  return g_property_clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t structure_clock() {
  if (t_view.open) return t_view.structure;
  return g_structure_clock.load(std::memory_order_relaxed);
}

std::uint64_t bump_structure_clock() {
  if (t_view.open) ++t_view.structure;
  return g_structure_clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

ClockView::ClockView(std::uint64_t structure_base,
                     std::uint64_t property_base) {
  t_view = View{true, structure_base, property_base};
}

ClockView::~ClockView() { t_view.open = false; }

}  // namespace arcadia::model
