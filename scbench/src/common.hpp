// Shared plumbing for the scbench workloads: options, clocks, sample
// statistics, host CPU accounting, the report every workload fills in,
// and the per-thread allocation counter the binary's operator new feeds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/profile.hpp"
#include "trace/request.hpp"

namespace scbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Small-scale run with every check on (the benchmark's own test).
    bool quick = false;
    /// Where the traced run writes its span summary ("" = nowhere).
    std::string out_dir;
    /// The one CPU the whole run is pinned to (-1 when pinning failed).
    int cpu = -1;
};

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns that CPU, or -1.
[[nodiscard]] int pin_to_one_cpu();

[[nodiscard]] std::uint64_t now_ns();
/// CPU time of the whole process / of the calling thread, in ns.
[[nodiscard]] std::uint64_t process_cpu_ns();
[[nodiscard]] std::uint64_t thread_cpu_ns();

/// Allocations made by the calling thread (operator new is replaced in
/// this binary; see main.cpp).
[[nodiscard]] std::uint64_t thread_allocations();

/// Percentile of an unsorted sample (linear interpolation between the
/// closest ranks, q in [0, 1]); 0 when empty. Sorts in place.
[[nodiscard]] double percentile(std::vector<double>& v, double q);
/// Same, for a sample already sorted ascending.
[[nodiscard]] double percentile_sorted(const std::vector<double>& v, double q);

/// The highest percentile (from 99.9, 99.99, 99.999) that still has at
/// least ten samples beyond it, or 0.99 when none does.
[[nodiscard]] double highest_supported_quantile(std::size_t n);

/// CPU shares from /proc/stat between two readings: host-wide, or of one
/// CPU when `cpu` >= 0.
struct HostCpu {
    std::uint64_t total = 0;
    std::uint64_t idle = 0;   ///< idle + iowait
    std::uint64_t steal = 0;
};
[[nodiscard]] HostCpu read_host_cpu(int cpu = -1);
struct HostShares {
    double steal = 0.0;
    double idle = 0.0;
};
[[nodiscard]] HostShares host_shares(const HostCpu& a, const HostCpu& b);

/// The UPisa profile every workload draws from, seeded by the benchmark
/// seed (the profile's own seed is replaced, never combined with time).
[[nodiscard]] sc::TraceProfile upisa_profile(double scale, std::uint64_t seed);

/// Key of one document version, as the infinite cache sees it.
[[nodiscard]] std::string doc_key(const sc::Request& r);

/// What one invocation measured. `metrics` holds the JSON metrics of the
/// requested mode (end-to-end or per-layer); `notes` are printed as
/// human-readable lines before the JSON.
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, double>> metrics;  ///< units: see main.cpp
    std::vector<std::string> notes;
    std::vector<std::string> check_failures;

    void metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
    void note(const std::string& line) { notes.push_back(line); }
    /// Record a check; a false condition marks the run incorrect.
    void check(bool ok, const std::string& what);
};

/// Median of a non-empty sample of setup times.
[[nodiscard]] double median(std::vector<double> v);

/// Aggregated spans, written to <out_dir>/spans-<workload>-<seed>.json
/// when the traced run ends.
struct SpanSummary {
    std::map<std::string, std::vector<double>> samples_ns;
    /// Spans kept only as totals (too many to keep one by one).
    std::map<std::string, std::pair<std::uint64_t, double>> totals_ns;
    void add(const std::string& name, double ns) { samples_ns[name].push_back(ns); }
    void add_total(const std::string& name, std::uint64_t count, double ns) {
        totals_ns[name] = {count, ns};
    }
};
void write_spans(const Options& opt, SpanSummary& spans);

/// Human-readable line for a latency sample: p50/p90/p99 and the highest
/// supported percentile, each with its sample count.
[[nodiscard]] std::string tail_line(const std::string& label, std::vector<double>& us);

}  // namespace scbench
