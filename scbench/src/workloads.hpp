// The four workloads and the layer measurements they share.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "proto/mini_proxy.hpp"
#include "sim/share_sim.hpp"
#include "trace/request.hpp"

namespace scbench {

/// mesh_summary / mesh_icp: origin + 4 MiniProxy over loopback.
[[nodiscard]] Report run_mesh(const Options& opt, sc::ShareMode mode);
/// hot_local: one proxy, warmed working set re-read with Zipf skew.
[[nodiscard]] Report run_hot_local(const Options& opt);
/// sim_summary: ShareSimulator replaying the full UPisa profile.
[[nodiscard]] Report run_sim_summary(const Options& opt);

/// Step timings and tallies of a replay that drives ProtocolEngine's
/// public steps itself (the same pipeline ShareSimulator runs).
struct EngineReplay {
    std::uint64_t requests = 0;
    std::uint64_t local_hits = 0;
    std::uint64_t remote_hits = 0;
    std::uint64_t server_fetches = 0;
    std::uint64_t query_messages = 0;
    std::uint64_t update_messages = 0;
    std::uint64_t update_bytes = 0;
    std::uint64_t publishes = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t batch_docs = 0;  ///< inserts coalesced into the publishes

    // Step self times (ns) and call counts.
    double lookup_ns = 0, probe_ns = 0, round_ns = 0, admit_ns = 0, publish_ns = 0;
    std::uint64_t lookups = 0, probes = 0, rounds = 0, admits = 0;
    std::uint64_t probe_allocations = 0;
    double wall_ns = 0;
};

/// Replay `trace` through per-proxy ProtocolEngines configured as
/// ShareSimulator would be for `cfg` (scheme simple; protocol summary,
/// icp or none), timing every step when `timed`.
[[nodiscard]] EngineReplay engine_replay(const sc::ShareSimConfig& cfg,
                                         const std::vector<sc::Request>& trace, bool timed);

/// Inputs for the per-layer measurements: the workload's own requests.
struct LayerInputs {
    const std::vector<sc::Request>* trace = nullptr;  ///< the workload's requests
    sc::ShareSimConfig engine_cfg;                    ///< engine replay set-up
    double trace_generate_ns = 0;                     ///< TraceGenerator::next, per request
    std::vector<std::uint64_t> miss_sizes;            ///< sizes the origin served (live runs)
    const EngineReplay* replay = nullptr;             ///< reuse a replay already made
};

/// Micro-measurements of single layers on the workload's data (parse,
/// codec, DIRUPDATE decode/apply, Bloom, event-loop wake, origin fetch)
/// plus the traced engine replay. Adds per-layer metrics to `rep`.
void measure_layers(const LayerInputs& in, Report& rep, SpanSummary& spans);

/// Infinite-cache hit bound of trace[begin, end) given everything before
/// `begin` was seen: requests whose (url, version) occurred earlier.
[[nodiscard]] std::uint64_t infinite_cache_hits(const std::vector<sc::Request>& trace,
                                                std::size_t begin, std::size_t end);

}  // namespace scbench
