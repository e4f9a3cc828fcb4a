// sim_summary: ShareSimulator replaying the full UPisa profile with the
// summary protocol (the Fig 5-8 set-up), and the traced replay that drives
// ProtocolEngine's public steps directly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "cache/lru_cache.hpp"
#include "core/peer_directory.hpp"
#include "core/protocol_engine.hpp"
#include "summary/message_costs.hpp"
#include "summary/summary.hpp"
#include "trace/generator.hpp"
#include "workloads.hpp"

namespace scbench {

std::uint64_t infinite_cache_hits(const std::vector<sc::Request>& trace, std::size_t begin,
                                  std::size_t end) {
    std::unordered_set<std::string> seen;
    seen.reserve(end);
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < end; ++i) {
        const bool repeat = !seen.insert(doc_key(trace[i])).second;
        if (i >= begin && repeat) ++hits;
    }
    return hits;
}

EngineReplay engine_replay(const sc::ShareSimConfig& cfg, const std::vector<sc::Request>& trace,
                           bool timed) {
    // Untimed, the same replay without the clock reads: the difference is
    // the tracing overhead.
    const auto clock = [timed] { return timed ? now_ns() : 0; };
    using sc::core::PeerAnswer;
    struct Proxy {
        std::unique_ptr<sc::LruCache> cache;
        std::unique_ptr<sc::DirectorySummary> summary;
        std::unique_ptr<sc::core::SummaryPeerView> peers;
        std::unique_ptr<sc::core::ProtocolEngine> engine;
    };
    const bool summary_mode = cfg.protocol == sc::QueryProtocol::summary;
    const std::uint32_t n = cfg.num_proxies;
    EngineReplay out;
    std::vector<Proxy> proxies(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto& p = proxies[i];
        p.cache = std::make_unique<sc::LruCache>(
            sc::LruCacheConfig{cfg.cache_bytes_per_proxy, cfg.max_object_bytes});
        if (summary_mode) {
            const std::uint64_t expected =
                std::max<std::uint64_t>(1, cfg.cache_bytes_per_proxy / sc::kAverageDocumentBytes);
            p.summary = sc::make_summary(cfg.summary_kind, expected, cfg.bloom);
            sc::DirectorySummary* s = p.summary.get();
            p.cache->set_insert_hook([s](const sc::LruCache::Entry& e) { s->on_insert(e.url); });
            p.cache->set_removal_hook([s](const sc::LruCache::Entry& e) { s->on_erase(e.url); });
        }
    }
    const sc::core::DeltaBatcherConfig batching{cfg.update_threshold,
                                                cfg.update_interval_seconds,
                                                cfg.min_update_changes};
    for (std::uint32_t i = 0; i < n; ++i) {
        auto& p = proxies[i];
        if (summary_mode) {
            p.peers = std::make_unique<sc::core::SummaryPeerView>();
            p.peers->set_prober(p.summary.get());
            for (std::uint32_t q = 0; q < n; ++q)
                if (q != i) p.peers->add_peer(q, proxies[q].summary.get());
        }
        p.engine = std::make_unique<sc::core::ProtocolEngine>(
            sc::core::ProtocolEngineConfig{i, batching}, *p.cache, p.summary.get(),
            p.peers.get());
    }

    const auto admit = [&](const sc::Request& r, std::uint32_t home) {
        Proxy& p = proxies[home];
        const std::uint64_t t0 = clock();
        const bool inserted = p.engine->admit(r.url, r.size, r.version);
        const std::uint64_t t1 = clock();
        out.admit_ns += static_cast<double>(t1 - t0);
        ++out.admits;
        if (!inserted) return;
        ++out.inserts;
        if (!p.summary) return;
        const auto pub = p.engine->maybe_publish(r.timestamp);
        const std::uint64_t t2 = clock();
        if (!pub || pub->wire_bytes == 0) return;
        out.publish_ns += static_cast<double>(t2 - t1);
        ++out.publishes;
        out.batch_docs += pub->batch_size;
        out.update_messages += n - 1;
        out.update_bytes += pub->wire_bytes * (n - 1);
    };

    const std::uint64_t wall0 = now_ns();
    std::vector<std::uint32_t> queried;
    for (const sc::Request& r : trace) {
        ++out.requests;
        const std::uint32_t home = r.client_id % n;
        sc::core::ProtocolEngine& engine = *proxies[home].engine;
        std::uint64_t t0 = clock();
        const bool hit = engine.lookup_local(r.url, r.version) == sc::CacheStore::Lookup::hit;
        std::uint64_t t1 = clock();
        out.lookup_ns += static_cast<double>(t1 - t0);
        ++out.lookups;
        if (hit) {
            ++out.local_hits;
            continue;
        }
        if (cfg.protocol == sc::QueryProtocol::none) {
            ++out.server_fetches;
            admit(r, home);
            continue;
        }
        if (summary_mode) {
            const std::uint64_t a0 = thread_allocations();
            t0 = clock();
            queried = engine.probe(r.url);
            t1 = clock();
            out.probe_allocations += thread_allocations() - a0;
            out.probe_ns += static_cast<double>(t1 - t0);
            ++out.probes;
        } else {
            queried.clear();
            for (std::uint32_t q = 0; q < n; ++q)
                if (q != home) queried.push_back(q);
        }
        const auto ask = [&](std::uint32_t q) {
            const auto v = proxies[q].cache->cached_version(r.url);
            if (!v) return PeerAnswer::absent;
            return *v == r.version ? PeerAnswer::fresh : PeerAnswer::stale;
        };
        t0 = clock();
        const sc::core::RoundOutcome round = summary_mode
                                                 ? engine.run_sequential_round(queried, ask)
                                                 : engine.run_multicast_round(queried, ask);
        t1 = clock();
        out.round_ns += static_cast<double>(t1 - t0);
        ++out.rounds;
        out.query_messages += round.queries;
        if (round.winner) {
            ++out.remote_hits;
            proxies[*round.winner].cache->touch(r.url);
            admit(r, home);
            continue;
        }
        ++out.server_fetches;
        admit(r, home);
    }
    out.wall_ns = static_cast<double>(now_ns() - wall0);
    for (const auto& p : proxies) out.evictions += p.cache->eviction_count();
    return out;
}

namespace {

struct SimSetup {
    std::vector<sc::Request> trace;
    sc::ShareSimConfig cfg;
    double generate_ns_per_req = 0;
};

SimSetup sim_setup(const Options& opt, double scale) {
    SimSetup s;
    const sc::TraceProfile profile = upisa_profile(scale, opt.seed);
    sc::TraceGenerator gen(profile);
    const std::uint64_t g0 = now_ns();
    s.trace.reserve(profile.requests);
    while (auto r = gen.next()) s.trace.push_back(std::move(*r));
    s.generate_ns_per_req =
        static_cast<double>(now_ns() - g0) / static_cast<double>(std::max<std::size_t>(1, s.trace.size()));
    // Fig 5-8 set-up: one proxy per client group, each with 10% of the
    // infinite cache size divided evenly, 16-bit-per-entry Bloom summaries,
    // updates at the 1% threshold batched to one IP packet. The infinite
    // cache counts the documents a cache can hold (<= max_object_bytes):
    // over all sizes it is dominated by a few multi-megabyte documents of
    // the Pareto tail, and cache size and hit ratio would swing by seed.
    std::unordered_set<std::string> seen;
    std::uint64_t infinite_bytes = 0;
    for (const auto& r : s.trace)
        if (r.size <= sc::kDefaultMaxObjectBytes && seen.insert(doc_key(r)).second)
            infinite_bytes += r.size;
    s.cfg.num_proxies = profile.proxy_groups;
    s.cfg.cache_bytes_per_proxy = std::max<std::uint64_t>(
        1024, static_cast<std::uint64_t>(static_cast<double>(infinite_bytes) * 0.10 /
                                         profile.proxy_groups));
    s.cfg.scheme = sc::SharingScheme::simple;
    s.cfg.protocol = sc::QueryProtocol::summary;
    s.cfg.summary_kind = sc::SummaryKind::bloom;
    s.cfg.bloom.load_factor = 16;
    s.cfg.min_update_changes = 350;
    return s;
}

/// Requests per chunk: the end-to-end figures are medians over chunks, so
/// a burst of host contention that slows a minority of chunks does not
/// move them.
constexpr std::size_t kChunk = 4096;

/// Per-chunk figures of every replay in a run.
struct Chunks {
    std::vector<double> rps, p50_us, p90_us, cpu_us;
};

/// One untraced replay with per-request service times by class.
struct SimRound {
    sc::ShareSimResult result;
    double wall_ns = 0;
};

SimRound replay(const SimSetup& s, Chunks& chunks, std::vector<double>& all_us,
                std::vector<double>& local_us, std::vector<double>& remote_us,
                std::vector<double>& miss_us) {
    SimRound out;
    const std::uint64_t w0 = now_ns();
    sc::ShareSimulator sim(s.cfg);
    std::uint64_t chunk_t0 = w0;
    std::uint64_t chunk_c0 = process_cpu_ns();
    std::vector<double> chunk_us;
    chunk_us.reserve(kChunk);
    for (const sc::Request& r : s.trace) {
        const std::uint64_t local = sim.result().local_hits;
        const std::uint64_t remote = sim.result().remote_hits;
        const std::uint64_t t0 = now_ns();
        sim.process(r);
        const double us = static_cast<double>(now_ns() - t0) / 1000.0;
        all_us.push_back(us);
        chunk_us.push_back(us);
        if (sim.result().local_hits != local)
            local_us.push_back(us);
        else if (sim.result().remote_hits != remote)
            remote_us.push_back(us);
        else
            miss_us.push_back(us);
        if (chunk_us.size() == kChunk) {
            const std::uint64_t t = now_ns();
            const std::uint64_t c = process_cpu_ns();
            chunks.rps.push_back(static_cast<double>(kChunk) / (static_cast<double>(t - chunk_t0) / 1e9));
            chunks.cpu_us.push_back(static_cast<double>(c - chunk_c0) / 1000.0 / static_cast<double>(kChunk));
            chunks.p50_us.push_back(percentile(chunk_us, 0.5));
            chunks.p90_us.push_back(percentile_sorted(chunk_us, 0.9));
            chunk_us.clear();
            chunk_t0 = now_ns();  // the bookkeeping above is not simulated work
            chunk_c0 = process_cpu_ns();
        }
    }
    out.wall_ns = static_cast<double>(now_ns() - w0);
    out.result = sim.result();
    return out;
}

bool same_tallies(const sc::ShareSimResult& a, const sc::ShareSimResult& b) {
    return a.requests == b.requests && a.local_hits == b.local_hits &&
           a.remote_hits == b.remote_hits && a.server_fetches == b.server_fetches &&
           a.query_messages == b.query_messages && a.update_messages == b.update_messages &&
           a.update_bytes == b.update_bytes && a.false_hits == b.false_hits;
}

}  // namespace

Report run_sim_summary(const Options& opt) {
    Report rep;
    const double scale = opt.quick ? 0.05 : 1.0;

    // Set up five times; setup_s is their median and the last set-up is the
    // one measured.
    std::vector<double> setup_s;
    SimSetup s;
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t t0 = now_ns();
        s = sim_setup(opt, scale);
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const std::uint64_t bound_hits = infinite_cache_hits(s.trace, 0, s.trace.size());

    std::vector<double> all_us, local_us, remote_us, miss_us;
    all_us.reserve(s.trace.size() * 6);
    const HostCpu host0 = read_host_cpu(), pin0 = read_host_cpu(opt.cpu);
    const std::uint64_t start = now_ns();
    const auto deadline = start + static_cast<std::uint64_t>(opt.seconds * 1e9);
    double wall_ns = 0;
    std::uint64_t rounds = 0;
    Chunks chunks;
    sc::ShareSimResult first;
    EngineReplay traced{};
    double traced_wall_ns = 0, plain_wall_ns = 0;
    std::uint64_t traced_rounds = 0, plain_rounds = 0;
    SpanSummary spans;
    do {
        // After one ShareSimulator replay, the traced run alternates untimed
        // and timed engine replays of the same trace; their per-request
        // difference is the tracing overhead.
        if (opt.trace && rounds > 0 && plain_rounds <= traced_rounds) {
            plain_wall_ns += engine_replay(s.cfg, s.trace, false).wall_ns;
            ++plain_rounds;
            continue;
        }
        if (opt.trace && rounds > 0) {
            traced = engine_replay(s.cfg, s.trace, true);
            traced_wall_ns += traced.wall_ns;
            ++traced_rounds;
            rep.check(traced.local_hits == first.local_hits &&
                          traced.remote_hits == first.remote_hits &&
                          traced.server_fetches == first.server_fetches &&
                          traced.query_messages == first.query_messages &&
                          traced.update_messages == first.update_messages &&
                          traced.update_bytes == first.update_bytes,
                      "traced ProtocolEngine replay tallies differ from ShareSimulator's");
            continue;
        }
        const SimRound round = replay(s, chunks, all_us, local_us, remote_us, miss_us);
        if (rounds == 0) first = round.result;
        rep.check(same_tallies(round.result, first), "replays of one trace gave different tallies");
        wall_ns += round.wall_ns;
        ++rounds;
    } while (now_ns() < deadline || (opt.trace && traced_rounds == 0));
    const HostShares host = host_shares(host0, read_host_cpu());
    const HostShares pin = host_shares(pin0, read_host_cpu(opt.cpu));

    const sc::ShareSimResult& r = first;
    rep.attempted = r.requests * rounds;
    rep.check(r.local_hits + r.remote_hits + r.server_fetches == r.requests,
              "local + remote hits + server fetches != requests");
    rep.check(r.local_hits + r.remote_hits <= bound_hits,
              "hit ratio exceeds the infinite-cache bound");
    const double hit_ratio = r.total_hit_ratio();

    char line[300];
    std::snprintf(line, sizeof line,
                  "sim_summary: %zu requests x %llu replays, %u proxies, cache %llu B/proxy, "
                  "hit ratio %.4f (infinite-cache bound %.4f), steal %.3f idle %.3f; cpu %d steal "
                  "%.3f idle %.3f",
                  s.trace.size(), static_cast<unsigned long long>(rounds), s.cfg.num_proxies,
                  static_cast<unsigned long long>(s.cfg.cache_bytes_per_proxy), hit_ratio,
                  static_cast<double>(bound_hits) / static_cast<double>(r.requests), host.steal,
                  host.idle, opt.cpu, pin.steal, pin.idle);
    rep.note(line);
    std::snprintf(line, sizeof line, "whole run: %.0f req/s; chunk medians: %.0f req/s",
                  static_cast<double>(r.requests * rounds) / (wall_ns / 1e9), median(chunks.rps));
    rep.note(line);
    rep.note(tail_line("per-request engine time", all_us));
    const double p50_local = percentile(local_us, 0.5);
    const double p50_remote = percentile(remote_us, 0.5);
    const double p50_miss = percentile(miss_us, 0.5);
    std::snprintf(line, sizeof line,
                  "class p50: local %.3fus (n=%zu) remote %.3fus (n=%zu) miss %.3fus (n=%zu); "
                  "peer msgs/req %.4f bytes/req %.2f",
                  p50_local, local_us.size(), p50_remote, remote_us.size(), p50_miss,
                  miss_us.size(), r.messages_per_request(), r.message_bytes_per_request());
    rep.note(line);

    if (!opt.trace) {
        rep.metric("throughput_rps", median(chunks.rps));
        rep.metric("latency_p50_us", median(chunks.p50_us));
        rep.metric("latency_p90_us", median(chunks.p90_us));
        rep.metric("hit_ratio", hit_ratio);
        rep.metric("mesh_cpu_us_per_req", median(chunks.cpu_us));
        rep.metric("setup_s", median(setup_s));
        return rep;
    }

    const double req = static_cast<double>(r.requests);
    rep.metric("local_hit_p50_us", p50_local);
    rep.metric("remote_hit_p50_us", p50_remote);
    rep.metric("miss_p50_us", p50_miss);
    rep.metric("peer_msgs_per_req", r.messages_per_request());
    rep.metric("peer_bytes_per_req", r.message_bytes_per_request());
    rep.metric("icp.queries_per_req", static_cast<double>(r.query_messages) / req);
    rep.metric("icp.replies_per_req", static_cast<double>(r.reply_messages) / req);
    rep.metric("icp.updates_per_req", static_cast<double>(r.update_messages) / req);
    rep.metric("icp.update_bytes_per_req", static_cast<double>(r.update_bytes) / req);
    rep.metric("core.false_hit_queries_per_req", static_cast<double>(r.wasted_queries) / req);
    const double untraced_us =
        plain_wall_ns / 1000.0 / static_cast<double>(s.trace.size() * plain_rounds);
    const double traced_us =
        traced_wall_ns / 1000.0 / static_cast<double>(s.trace.size() * traced_rounds);
    rep.metric("trace_overhead_us_per_req", traced_us - untraced_us);
    std::snprintf(line, sizeof line,
                  "tracing overhead: %.3fus/request timed vs %.3fus untimed engine replay "
                  "(%llu + %llu replays)",
                  traced_us, untraced_us, static_cast<unsigned long long>(traced_rounds),
                  static_cast<unsigned long long>(plain_rounds));
    rep.note(line);

    rep.metric("core.delta_batch_size",
               traced.publishes == 0 ? 0.0
                                     : static_cast<double>(traced.batch_docs) /
                                           static_cast<double>(traced.publishes));
    LayerInputs in;
    in.trace = &s.trace;
    in.engine_cfg = s.cfg;
    in.replay = &traced;
    in.trace_generate_ns = s.generate_ns_per_req;
    measure_layers(in, rep, spans);
    write_spans(opt, spans);
    return rep;
}

}  // namespace scbench
