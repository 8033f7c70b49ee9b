/// \file transitive.hpp
/// Whole-program (call-graph-aware) rules for dqos_lint v2
/// (DESIGN.md §15). Each rule walks the call graph from its roots and
/// reports findings whose message embeds the full call chain from root
/// to offending line, so a CI failure is actionable without re-running
/// the tool locally.
///
///   rule id               | guards against
///   ----------------------|-------------------------------------------
///   hot-path-transitive   | allocation / container growth / type
///                         | erasure / wall-clock in a
///                         | `// dqos-lint: hot` function's own body
///                         | (depth 0) or in any function reachable
///                         | from it (the batch drain / argmin scan /
///                         | credit flush paths stay allocation-free)
///   shard-ownership       | direct calendar calls (schedule_at / keyed
///                         | / run_until) made inside a
///                         | `// dqos-lint: shard` region (depth 0) or
///                         | reachable from its calls — shard workers
///                         | cross shards only through the engine's
///                         | mailbox API
///   rng-stream-discipline | (a) a named split-stream constant (e.g.
///                         | 0xbacc0ff5) seeded from more than one
///                         | subsystem, (b) one function drawing from
///                         | two distinct RNG streams
///   float-time-transitive | floating-point time/bandwidth accumulation
///                         | across a function boundary on merge /
///                         | replay / reconcile / barrier paths
///
/// All four honour `// dqos-lint: allow(rule-id)` at the offending line
/// (findings come back with Finding::suppressed set, filtered by the
/// driver).
#pragma once

#include <vector>

#include "lint/callgraph.hpp"
#include "lint/indexer.hpp"
#include "lint/rules.hpp"

namespace dqos::lintkit {

/// Runs every transitive rule over the finished index + call graph and
/// appends findings (suppressed ones included, flagged) to `out`.
void run_transitive_rules(const Index& idx, const CallGraph& graph,
                          std::vector<Finding>& out);

}  // namespace dqos::lintkit
