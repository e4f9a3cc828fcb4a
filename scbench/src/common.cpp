#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sched.h>
#include <sstream>

namespace scbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double percentile_sorted(const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double percentile(std::vector<double>& v, double q) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, q);
}

double highest_supported_quantile(std::size_t n) {
    double best = 0.99;
    for (const double q : {0.999, 0.9999, 0.99999}) {
        const double beyond = (1.0 - q) * static_cast<double>(n);
        if (beyond >= 10.0) best = q;
    }
    return best;
}

int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
    }
    return -1;
}

HostCpu read_host_cpu(int cpu) {
    HostCpu out;
    const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
    std::ifstream in("/proc/stat");
    std::string name;
    while (in >> name && name != want) in.ignore(1 << 16, '\n');
    if (name != want) return out;
    // user nice system idle iowait irq softirq steal (guest time is already
    // included in user/nice, so it is not added again).
    std::uint64_t f[8] = {};
    for (auto& x : f) in >> x;
    for (const auto x : f) out.total += x;
    out.idle = f[3] + f[4];
    out.steal = f[7];
    return out;
}

HostShares host_shares(const HostCpu& a, const HostCpu& b) {
    HostShares s;
    if (b.total <= a.total) return s;
    const auto span = static_cast<double>(b.total - a.total);
    s.steal = static_cast<double>(b.steal - a.steal) / span;
    s.idle = static_cast<double>(b.idle - a.idle) / span;
    return s;
}

sc::TraceProfile upisa_profile(double scale, std::uint64_t seed) {
    sc::TraceProfile p = sc::standard_profile(sc::TraceKind::upisa, scale);
    // splitmix64 of the benchmark seed: distinct seeds give unrelated
    // streams, and seed 0 is as good as any other.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    p.seed = z ^ (z >> 31);
    return p;
}

std::string doc_key(const sc::Request& r) {
    std::string k = r.url;
    k += '#';
    k += std::to_string(r.version);
    return k;
}

void Report::check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    check_failures.push_back(what);
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

void write_spans(const Options& opt, SpanSummary& spans) {
    if (opt.out_dir.empty()) return;
    const std::string path =
        opt.out_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    if (!out) return;
    out << "{\n";
    bool first = true;
    for (auto& [name, v] : spans.samples_ns) {
        std::sort(v.begin(), v.end());
        double sum = 0.0;
        for (const double x : v) sum += x;
        out << (first ? "" : ",\n") << "  \"" << name << "\": {\"count\": " << v.size()
            << ", \"total_ns\": " << sum << ", \"p50_ns\": " << percentile_sorted(v, 0.5)
            << ", \"p90_ns\": " << percentile_sorted(v, 0.9)
            << ", \"p99_ns\": " << percentile_sorted(v, 0.99) << "}";
        first = false;
    }
    for (const auto& [name, t] : spans.totals_ns) {
        out << (first ? "" : ",\n") << "  \"" << name << "\": {\"count\": " << t.first
            << ", \"total_ns\": " << t.second << "}";
        first = false;
    }
    out << "\n}\n";
}

std::string tail_line(const std::string& label, std::vector<double>& us) {
    std::sort(us.begin(), us.end());
    const std::size_t n = us.size();
    const double top = highest_supported_quantile(n);
    const auto beyond = [n](double q) {
        return static_cast<std::uint64_t>(std::floor((1.0 - q) * static_cast<double>(n)));
    };
    char buf[400];
    std::snprintf(buf, sizeof buf,
                  "%s: n=%zu p50=%.1fus p90=%.1fus p99=%.1fus (%llu beyond) "
                  "p%.3f=%.1fus (%llu beyond)",
                  label.c_str(), n, percentile_sorted(us, 0.5), percentile_sorted(us, 0.9),
                  percentile_sorted(us, 0.99),
                  static_cast<unsigned long long>(beyond(0.99)), 100.0 * top,
                  percentile_sorted(us, top), static_cast<unsigned long long>(beyond(top)));
    return buf;
}

}  // namespace scbench
