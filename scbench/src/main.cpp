// scbench — end-to-end and per-layer benchmark of the summary-cache mesh.
//
//   scbench --workload <mesh_summary|mesh_icp|hot_local|sim_summary>
//           --seed <n> --seconds <s> --trace <0|1> [--quick] [--out-dir <dir>]
//
// Prints human-readable lines, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (see
// scbench/README.md for the definitions).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

// ---- allocation counter -----------------------------------------------------
// Every heap allocation bumps a per-thread count, so a layer can report the
// allocations its own calls made (core.probe_allocs).
namespace {
thread_local std::uint64_t t_allocations = 0;
}

std::uint64_t scbench::thread_allocations() { return t_allocations; }

void* operator new(std::size_t n) {
    ++t_allocations;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using scbench::Options;
using scbench::Report;

struct MetricDef {
    const char* name;
    const char* unit;
};

// The end-to-end set: defined, and never 0, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_rps", "1/s"},      {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},       {"hit_ratio", "ratio"},
    {"mesh_cpu_us_per_req", "us"},  {"setup_s", "s"},
};

// The per-layer set. A layer a workload does not exercise reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"local_hit_p50_us", "us"},
    {"remote_hit_p50_us", "us"},
    {"miss_p50_us", "us"},
    {"peer_msgs_per_req", "1"},
    {"peer_bytes_per_req", "B"},
    {"proto.ttfb_p50_us", "us"},
    {"proto.body_p50_us", "us"},
    {"proto.parse_ns", "ns"},
    {"proto.origin_fetch_us", "us"},
    {"proto.sibling_connects_per_req", "1"},
    {"net.loop_wakeups_per_req", "1"},
    {"net.loop_wait_us_per_req", "us"},
    {"net.wake_us", "us"},
    {"icp.queries_per_req", "1"},
    {"icp.replies_per_req", "1"},
    {"icp.updates_per_req", "1"},
    {"icp.update_bytes_per_req", "B"},
    {"icp.timeouts_per_req", "1"},
    {"icp.codec_ns", "ns"},
    {"icp.dirupdate_decode_ns", "ns"},
    {"core.lookup_ns", "ns"},
    {"core.probe_ns", "ns"},
    {"core.round_ns", "ns"},
    {"core.admit_ns", "ns"},
    {"core.probe_allocs", "1"},
    {"core.apply_update_us", "us"},
    {"core.delta_batch_size", "1"},
    {"core.false_hit_queries_per_req", "1"},
    {"bloom.index_ns", "ns"},
    {"bloom.probe_ns", "ns"},
    {"bloom.counting_update_ns", "ns"},
    {"summary.publish_us", "us"},
    {"summary.bytes_per_publish", "B"},
    {"cache.evictions_per_insert", "1"},
    {"cache.lock_wait_us_per_req", "us"},
    {"trace.generate_ns", "ns"},
    {"trace_overhead_us_per_req", "us"},
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "scbench: %s\nusage: scbench --workload <mesh_summary|mesh_icp|hot_local|"
                 "sim_summary> --seed <n> --seconds <s> --trace <0|1> [--quick] "
                 "[--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace") o.trace = value() == "1";
        else if (a == "--quick") o.quick = true;
        else if (a == "--out-dir") o.out_dir = value();
        else usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt = parse(argc, argv);
    // The whole run, load generator included, shares one CPU. Spread over
    // all CPUs of a shared host, every hop of a request between threads
    // waits for an idle virtual CPU to be woken, and that wait follows the
    // host's load: unpinned mesh throughput moved by a factor of 4 between
    // runs. On one CPU the hops are context switches.
    opt.cpu = scbench::pin_to_one_cpu();
    Report rep;
    if (opt.workload == "mesh_summary") rep = scbench::run_mesh(opt, sc::ShareMode::summary);
    else if (opt.workload == "mesh_icp") rep = scbench::run_mesh(opt, sc::ShareMode::icp);
    else if (opt.workload == "hot_local") rep = scbench::run_hot_local(opt);
    else if (opt.workload == "sim_summary") rep = scbench::run_sim_summary(opt);
    else usage(("unknown workload " + opt.workload).c_str());

    // Order (and complete) the metrics by the declared set.
    std::string metrics;
    const auto emit = [&](const MetricDef& d, double v) {
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + std::string(d.name) + "\": {\"value\": " + json_number(v) +
                   ", \"unit\": \"" + d.unit + "\"}";
        std::printf("metric %-32s %14.6g %s\n", d.name, v, d.unit);
    };
    const auto find = [&](const char* name) -> const double* {
        for (const auto& [n, v] : rep.metrics)
            if (n == name) return &v;
        return nullptr;
    };
    if (!opt.trace) {
        for (const auto& d : kEndToEnd) {
            const double* v = find(d.name);
            rep.check(v != nullptr && *v > 0.0,
                      std::string("end-to-end metric missing or not positive: ") + d.name);
            emit(d, v != nullptr ? *v : 0.0);
        }
    } else {
        for (const auto& d : kPerLayer) {
            const double* v = find(d.name);
            emit(d, v != nullptr ? *v : 0.0);
        }
    }
    for (const auto& n : rep.notes) std::printf("%s\n", n.c_str());
    for (const auto& f : rep.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                rep.correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), metrics.c_str());
    std::fflush(stdout);
    // Skip static destructors: every server thread has been joined already.
    std::_Exit(0);
}
