// Per-layer measurements on a workload's own data: the session parser,
// the ICP codec, DIRUPDATE decode and apply, Bloom hashing and probing,
// the event loop's wake-up, an origin fetch, and the traced engine replay.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "bloom/bloom_filter.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "bloom/hash_spec.hpp"
#include "cache/lru_cache.hpp"
#include "core/summary_cache_node.hpp"
#include "icp/icp_message.hpp"
#include "net/event_backend.hpp"
#include "proto/http_session.hpp"
#include "proto/origin_server.hpp"
#include "proto/tcp.hpp"
#include "summary/bloom_summary.hpp"
#include "summary/message_costs.hpp"
#include "workloads.hpp"

namespace scbench {

namespace {

/// Keeps the optimiser from discarding measured work.
std::atomic<std::uint64_t> g_sink{0};

/// Repeat `pass` (which handles `items` items) until at least `min_ns`
/// have passed; returns ns per item.
template <typename Fn>
double per_item_ns(std::size_t items, std::uint64_t min_ns, Fn&& pass) {
    std::uint64_t done = 0;
    const std::uint64_t t0 = now_ns();
    std::uint64_t t = t0;
    do {
        pass();
        done += items;
        t = now_ns();
    } while (t - t0 < min_ns);
    return static_cast<double>(t - t0) / static_cast<double>(std::max<std::uint64_t>(1, done));
}

constexpr std::uint64_t kMinPassNs = 60'000'000;  // 60 ms per micro layer

double parse_ns(const std::vector<std::string>& lines) {
    return per_item_ns(lines.size(), kMinPassNs, [&] {
        sc::HttpSessionParser parser;
        std::uint64_t n = 0;
        for (const auto& l : lines)
            if (auto r = parser.on_line(l)) n += r->req.size;
        g_sink.fetch_add(n, std::memory_order_relaxed);
    });
}

double codec_ns(const std::vector<std::string>& urls) {
    return per_item_ns(urls.size(), kMinPassNs, [&] {
        std::uint64_t n = 0;
        sc::IcpQuery q;
        sc::IcpReply r;
        r.opcode = sc::IcpOpcode::miss;
        for (const auto& u : urls) {
            q.request_number = static_cast<std::uint32_t>(n + 1);
            q.url = u;
            const auto qd = sc::encode_query(q);
            n += sc::decode_query(qd).url.size();
            r.request_number = q.request_number;
            r.url = u;
            const auto rd = sc::encode_reply(r);
            n += sc::decode_reply(rd).url.size();
        }
        g_sink.fetch_add(n, std::memory_order_relaxed);
    });
}

/// DIRUPDATE datagrams the workload's inserts produce at one node (full
/// bitmap first, then a delta batch every `batch` inserts), decoded and
/// applied at a sibling.
struct DirUpdateCost {
    double decode_ns = 0;
    double apply_us = 0;
    std::size_t datagrams = 0;
};

DirUpdateCost dirupdate_cost(const std::vector<sc::Request>& trace, std::uint64_t cache_bytes) {
    DirUpdateCost out;
    const std::uint64_t expected =
        std::max<std::uint64_t>(1, cache_bytes / sc::kAverageDocumentBytes);
    sc::SummaryCacheNode sender(sc::SummaryCacheNodeConfig{1, expected, {}, 0x5cb0});
    sc::LruCache cache(sc::LruCacheConfig{cache_bytes, sc::kDefaultMaxObjectBytes});
    cache.set_insert_hook([&](const sc::LruCache::Entry& e) { sender.on_cache_insert(e.url); });
    cache.set_removal_hook([&](const sc::LruCache::Entry& e) { sender.on_cache_erase(e.url); });
    std::vector<std::vector<std::uint8_t>> grams = sender.encode_full_update_chunks();
    constexpr std::size_t kBatch = 350;  // one IP packet of bit flips
    std::size_t since = 0;
    for (const auto& r : trace) {
        if (grams.size() >= 2000) break;
        if (cache.lookup(r.url, r.version) == sc::CacheStore::Lookup::hit) continue;
        if (!cache.insert(r.url, r.size, r.version)) continue;
        if (++since < kBatch) continue;
        since = 0;
        for (auto& g : sender.encode_pending_updates()) grams.push_back(std::move(g));
    }
    out.datagrams = grams.size();
    if (grams.empty()) return out;
    out.decode_ns = per_item_ns(grams.size(), kMinPassNs, [&] {
        std::uint64_t n = 0;
        for (const auto& g : grams) n += sc::decode_dirupdate(g).records.size();
        g_sink.fetch_add(n, std::memory_order_relaxed);
    });
    std::vector<sc::IcpDirUpdate> decoded;
    decoded.reserve(grams.size());
    for (const auto& g : grams) decoded.push_back(sc::decode_dirupdate(g));
    double total_ns = 0;
    std::uint64_t applied = 0;
    const std::uint64_t t_end = now_ns() + kMinPassNs;
    do {
        sc::SummaryCacheNode receiver(sc::SummaryCacheNodeConfig{2, expected, {}, 0x5cb1});
        const std::uint64_t t0 = now_ns();
        for (const auto& u : decoded) {
            if (receiver.apply_sibling_update(u) == sc::SummaryApplyResult::applied) ++applied;
        }
        total_ns += static_cast<double>(now_ns() - t0);
    } while (now_ns() < t_end);
    out.apply_us = total_ns / 1000.0 /
                   static_cast<double>(std::max<std::uint64_t>(1, applied));
    return out;
}

struct BloomCost {
    double index_ns = 0, probe_ns = 0, counting_ns = 0;
};

BloomCost bloom_cost(const std::vector<std::string>& urls, std::uint64_t cache_bytes) {
    BloomCost out;
    const std::uint64_t expected =
        std::max<std::uint64_t>(1, cache_bytes / sc::kAverageDocumentBytes);
    sc::HashSpec spec;
    spec.table_bits = sc::bloom_table_bits(expected, 16);
    sc::BloomIndexes idx;
    out.index_ns = per_item_ns(urls.size(), kMinPassNs, [&] {
        std::uint64_t n = 0;
        for (const auto& u : urls) {
            sc::bloom_indexes(u, spec, idx);
            n += idx[0];
        }
        g_sink.fetch_add(n, std::memory_order_relaxed);
    });
    sc::BloomFilter filter(spec);
    for (std::size_t i = 0; i < urls.size(); i += 2) filter.insert(urls[i]);
    std::vector<sc::BloomIndexes> pre(urls.size());
    for (std::size_t i = 0; i < urls.size(); ++i) sc::bloom_indexes(urls[i], spec, pre[i]);
    out.probe_ns = per_item_ns(urls.size(), kMinPassNs, [&] {
        std::uint64_t n = 0;
        for (const auto& p : pre) n += filter.may_contain(p.span()) ? 1 : 0;
        g_sink.fetch_add(n, std::memory_order_relaxed);
    });
    sc::CountingBloomFilter counting(spec);
    out.counting_ns = per_item_ns(urls.size(), kMinPassNs, [&] {
        for (const auto& u : urls) counting.insert(u);
        for (const auto& u : urls) counting.erase(u);
    }) / 2.0;
    return out;
}

/// Event loop wake-up: time from a pipe write on one thread to the
/// EventBackend::wait return on another.
double wake_us() {
    int fds[2];
    if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return 0.0;
    auto backend = sc::net::make_event_backend(sc::net::default_event_backend_kind());
    backend->add(fds[0], true, false, 1);
    std::atomic<int> phase{0};  // 1: the waiter is about to block
    std::atomic<std::uint64_t> wrote_at{0};
    constexpr int kSamples = 2000;
    std::vector<double> samples;
    samples.reserve(kSamples);
    std::thread writer([&] {
        for (int i = 0; i < kSamples; ++i) {
            while (phase.load(std::memory_order_acquire) != 1) std::this_thread::yield();
            phase.store(0, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(20));  // let the waiter block
            wrote_at.store(now_ns(), std::memory_order_release);
            const char b = 'w';
            if (::write(fds[1], &b, 1) != 1) break;
        }
    });
    std::vector<sc::net::ReadyEvent> events;
    for (int i = 0; i < kSamples; ++i) {
        phase.store(1, std::memory_order_release);
        if (backend->wait(std::chrono::steady_clock::now() + std::chrono::seconds(2), events) == 0)
            break;  // the writer stopped
        const std::uint64_t t = now_ns();
        const std::uint64_t w = wrote_at.load(std::memory_order_acquire);
        if (w != 0 && t > w) samples.push_back(static_cast<double>(t - w) / 1000.0);
        char buf[8];
        while (::read(fds[0], buf, sizeof buf) > 0) {
        }
        wrote_at.store(0, std::memory_order_relaxed);
    }
    writer.join();
    backend->remove(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
    return percentile(samples, 0.5);
}

/// A GET to an OriginServer over one keep-alive TcpConnection, at the
/// workload's miss sizes.
double origin_fetch_us(const std::vector<std::uint64_t>& sizes) {
    if (sizes.empty()) return 0.0;
    sc::OriginServer origin(sc::OriginServer::Config{});
    std::vector<double> samples;
    try {
        sc::TcpConnection conn = sc::TcpConnection::connect(origin.endpoint());
        std::string body;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const std::string req =
                "GET http://origin.scbench/d" + std::to_string(i) + " 1 " +
                std::to_string(sizes[i]) + "\r\n";
            const std::uint64_t t0 = now_ns();
            conn.write_all(req);
            const auto line = conn.read_line();
            if (!line) break;
            conn.read_exact(sizes[i], body);
            samples.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
        }
    } catch (const std::exception&) {
    }
    origin.stop();
    return percentile(samples, 0.5);
}

}  // namespace

void measure_layers(const LayerInputs& in, Report& rep, SpanSummary& spans) {
    const auto& trace = *in.trace;
    const std::size_t n = std::min<std::size_t>(trace.size(), 20'000);
    std::vector<std::string> lines, urls;
    lines.reserve(n);
    urls.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto& r = trace[trace.size() - n + i];
        lines.push_back("GET " + r.url + " " + std::to_string(r.version) + " " +
                        std::to_string(r.size));
        urls.push_back(r.url);
    }
    rep.metric("proto.parse_ns", parse_ns(lines));

    std::vector<std::uint64_t> sizes = in.miss_sizes;
    if (sizes.empty())
        for (std::size_t i = 0; i < n && sizes.size() < 400; ++i)
            if (trace[i].size <= sc::kDefaultMaxObjectBytes) sizes.push_back(trace[i].size);
    if (sizes.size() > 400) sizes.resize(400);
    rep.metric("proto.origin_fetch_us", origin_fetch_us(sizes));
    rep.metric("net.wake_us", wake_us());
    rep.metric("icp.codec_ns", codec_ns(urls));
    const DirUpdateCost du = dirupdate_cost(trace, in.engine_cfg.cache_bytes_per_proxy);
    rep.metric("icp.dirupdate_decode_ns", du.decode_ns);
    rep.metric("core.apply_update_us", du.apply_us);
    const BloomCost bc = bloom_cost(urls, in.engine_cfg.cache_bytes_per_proxy);
    rep.metric("bloom.index_ns", bc.index_ns);
    rep.metric("bloom.probe_ns", bc.probe_ns);
    rep.metric("bloom.counting_update_ns", bc.counting_ns);
    rep.metric("trace.generate_ns", in.trace_generate_ns);

    EngineReplay own;
    if (in.replay == nullptr) own = engine_replay(in.engine_cfg, trace, true);
    const EngineReplay& e = in.replay != nullptr ? *in.replay : own;
    const auto per = [](double ns, std::uint64_t count) {
        return count == 0 ? 0.0 : ns / static_cast<double>(count);
    };
    rep.metric("core.lookup_ns", per(e.lookup_ns, e.lookups));
    rep.metric("core.probe_ns", per(e.probe_ns, e.probes));
    rep.metric("core.round_ns", per(e.round_ns, e.rounds));
    rep.metric("core.admit_ns", per(e.admit_ns, e.admits));
    rep.metric("core.probe_allocs",
               per(static_cast<double>(e.probe_allocations), e.probes));
    rep.metric("summary.publish_us", per(e.publish_ns, e.publishes) / 1000.0);
    const std::uint64_t peers = in.engine_cfg.num_proxies > 1 ? in.engine_cfg.num_proxies - 1 : 1;
    rep.metric("summary.bytes_per_publish",
               per(static_cast<double>(e.update_bytes / peers), e.publishes));
    rep.metric("cache.evictions_per_insert",
               per(static_cast<double>(e.evictions), e.inserts));
    spans.add_total("engine.lookup", e.lookups, e.lookup_ns);
    spans.add_total("engine.probe", e.probes, e.probe_ns);
    spans.add_total("engine.round", e.rounds, e.round_ns);
    spans.add_total("engine.admit", e.admits, e.admit_ns);
    spans.add_total("engine.publish", e.publishes, e.publish_ns);

    char line[300];
    std::snprintf(line, sizeof line,
                  "engine replay: %llu requests, local %llu remote %llu server %llu, "
                  "%llu publishes, %zu DIRUPDATE datagrams timed",
                  static_cast<unsigned long long>(e.requests),
                  static_cast<unsigned long long>(e.local_hits),
                  static_cast<unsigned long long>(e.remote_hits),
                  static_cast<unsigned long long>(e.server_fetches),
                  static_cast<unsigned long long>(e.publishes), du.datagrams);
    rep.note(line);
}

}  // namespace scbench
