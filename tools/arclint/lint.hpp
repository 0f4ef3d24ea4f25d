// arclint — Arcadia's repo-specific determinism/concurrency linter.
//
// Generic static analysis (clang -Wthread-safety, clang-tidy, sanitizers)
// cannot know this repo's invariants; arclint encodes them as lexical rules
// over src/:
//
//   unordered-container   No std::unordered_{map,set,multimap,multiset}
//                         anywhere under src/. Hash-ordered iteration has
//                         already leaked into dispatch order once (the
//                         FlowNetwork allocator); ordered containers make
//                         the bit-identical determinism contract hold by
//                         construction.
//   wall-clock            No rand()/srand()/std::random_device and no
//                         std::chrono clocks (steady/system/high_resolution)
//                         or C time calls in src/sim/ and src/repair/.
//                         Simulated behaviour must be a pure function of
//                         (config, seed) — util::Rng only.
//   raw-mutex             No std::mutex / lock_guard / unique_lock /
//                         scoped_lock / condition_variable (or their
//                         headers) outside src/util/annotations.hpp. All
//                         locking goes through the annotated util::Mutex
//                         wrappers so clang thread-safety coverage is total.
//   hotpath-std-function  In files carrying a `// arclint: hotpath` marker,
//                         no std::function (heap-owning type erasure) —
//                         util::SmallFn or templates only.
//   tools-parity          Every tools/* binary must be wired into both the
//                         ctest suite (an add_test in the root
//                         CMakeLists.txt) and the CI workflow — a tool
//                         nobody runs is a gate nobody trusts. Project-
//                         level: checked once over CMakeLists.txt and
//                         .github/workflows/ci.yml, not per source file.
//   shard-isolation       In src/sim/ files carrying a `// arclint: shard`
//                         marker (the sharded simulation kernel), no
//                         FleetManager / EventBus / DurabilityPlane tokens
//                         and no quoted include of core/fleet_manager.hpp,
//                         core/fleet.hpp, events/bus.hpp, or
//                         durability/plane.hpp. Cross-shard effects route
//                         through the SimCoordinator seam (mail, barrier
//                         hook); a kernel that reaches into the control
//                         plane directly invalidates the conservative
//                         window bound.
//   one-pool              A ThreadPool may be constructed under src/ only
//                         in sim/shard_sim.cpp (the SimCoordinator: shard
//                         windows and the fleet's barrier sweep) and
//                         core/suite.cpp (whole experiments in parallel).
//                         A second pool beside the coordinator's sits idle
//                         while the coordinator's workers run, or
//                         oversubscribes the host when both run.
//
// Exemptions are explicit and carry a justification in the source:
//   // arclint: allow(<rule>): <reason>        exempts that line
//   // arclint: allow-file(<rule>): <reason>   exempts the whole file
//
// Matching runs on comment- and string-stripped text (a rule named in a
// comment is not a violation); directives are read from the raw text (they
// live in comments).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace arclint {

struct Finding {
  std::string path;     ///< repo-relative, forward slashes
  std::size_t line;     ///< 1-based
  std::string rule;     ///< rule id, e.g. "raw-mutex"
  std::string message;  ///< what was matched and why it is banned
};

/// Replace comments, string literals, and char literals with spaces,
/// preserving line structure (newlines survive) so findings keep their line
/// numbers. Handles //, /* */, escapes, and R"delim(...)delim" raw strings.
std::string strip_comments_and_strings(std::string_view source);

/// Lint one file's contents. `path` must be repo-relative with forward
/// slashes (e.g. "src/sim/network.hpp") — rule applicability is decided
/// from it. Returns findings in line order.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source);

/// Project-level "tools-parity" rule: for each tool name, the root
/// CMakeLists text must contain an add_test(...) invocation naming it and
/// the CI workflow text must mention it as a whole word. Findings point at
/// the file missing the wiring, with line 0 (file-level).
std::vector<Finding> check_tools_parity(
    const std::vector<std::string>& tool_names, std::string_view cmake_text,
    std::string_view ci_text);

/// All rule ids, for --list-rules and the self-test.
const std::vector<std::string>& rule_ids();

}  // namespace arclint
