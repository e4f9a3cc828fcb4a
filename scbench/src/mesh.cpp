// Live workloads over loopback: mesh_summary / mesh_icp (origin + 4
// MiniProxy, one keep-alive connection per proxy, requests bound to
// proxies by client id mod 4) and hot_local (one proxy, 4 connections,
// every measured request a local hit).
//
// Every run attempts whole rounds: a round is the next `round_requests`
// requests of the stream. Documents above write_buffer_limit are not in the
// stream: the proxy drops a session whose unsent response tail exceeds the
// limit (F1), and whether that happens depends on how fast the socket drains
// at that moment, so such a request fails only now and then. The mesh
// workloads ask for a few of them after the measured rounds and report how
// many failed, outside the measured counts.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "icp/icp_message.hpp"
#include "obs/metrics.hpp"
#include "proto/origin_server.hpp"
#include "proto/tcp.hpp"
#include "trace/generator.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace scbench {

namespace {

constexpr int kConnections = 4;
constexpr int kMeshProxies = 4;
/// Two workers per proxy: with one, two proxies fetching remote hits from
/// each other at the same moment each wait for the other's only worker
/// until fetch_timeout (F2).
constexpr int kWorkers = 2;
/// F1 document, four times write_buffer_limit (8 MiB).
constexpr std::uint64_t kF1Bytes = 32ull << 20;
constexpr int kF1Probes = 4;
constexpr const char* kF1Url = "http://f1.scbench/oversize";

enum class Cls : std::uint8_t { local, remote, miss, failed };

struct Conn {
    sc::Endpoint ep;
    std::optional<sc::TcpConnection> c;
    std::string line;
    std::string body;
    std::uint64_t connects = 0;
};

struct Outcome {
    Cls cls = Cls::failed;
    bool header_ok = true;
    bool body_ok = true;
    std::uint64_t t_hdr = 0;
    std::uint64_t t_end = 0;
};

bool all_x(const std::string& body) {
    static const std::string block(65536, 'x');
    for (std::size_t off = 0; off < body.size(); off += block.size()) {
        const std::size_t n = std::min(block.size(), body.size() - off);
        if (std::memcmp(body.data() + off, block.data(), n) != 0) return false;
    }
    return true;
}

/// One closed-loop HTTP-lite GET: write the request, read the header line
/// and exactly the announced body, then check status, size and fill.
Outcome fetch(Conn& k, const std::string& url, std::uint64_t version, std::uint64_t size) {
    Outcome o;
    try {
        if (!k.c) {
            k.c = sc::TcpConnection::connect(k.ep);
            ++k.connects;
            timeval tv{10, 0};  // a wedged proxy fails the request, not the run
            setsockopt(k.c->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        }
        k.line = "GET ";
        k.line += url;
        k.line += ' ';
        k.line += std::to_string(version);
        k.line += ' ';
        k.line += std::to_string(size);
        k.line += "\r\n";
        k.c->write_all(k.line);
        const auto header = k.c->read_line();
        o.t_hdr = now_ns();
        if (!header) throw std::runtime_error("EOF before header");
        const auto sp = header->find(' ');
        const std::string status = header->substr(0, sp);
        const std::uint64_t announced =
            sp == std::string::npos ? ~0ull : std::strtoull(header->c_str() + sp + 1, nullptr, 10);
        if (status == "LOCAL_HIT")
            o.cls = Cls::local;
        else if (status == "REMOTE_HIT")
            o.cls = Cls::remote;
        else if (status == "MISS")
            o.cls = Cls::miss;
        else
            o.header_ok = false;
        if (announced != size) o.header_ok = false;
        if (!o.header_ok) throw std::runtime_error("bad header");
        k.c->read_exact(size, k.body);
        o.t_end = now_ns();
        o.body_ok = k.body.size() == size && all_x(k.body);
    } catch (const std::exception&) {
        o.cls = Cls::failed;
        if (o.t_end == 0) o.t_end = now_ns();
        k.c.reset();
    }
    return o;
}

/// Per-connection tallies of the measured rounds.
struct ThreadOut {
    std::vector<double> lat_us, local_us, remote_us, miss_us, ttfb_us, body_us;
    std::uint64_t local = 0, remote = 0, miss = 0, failed = 0;
    std::uint64_t bad_header = 0, bad_body = 0, bad_local = 0, bad_remote = 0;
    std::uint64_t slow = 0;  ///< completed, but slower than fetch_timeout
    std::uint64_t cpu_ns = 0;
    std::uint64_t cpu_start_ns = 0;
    std::vector<std::uint64_t> miss_sizes;
    /// Per round: lat_us.size() and this thread's CPU time at the round's end.
    std::vector<std::size_t> round_marks;
    std::vector<std::uint64_t> round_cpu_ns;
};

/// A request stream plus what the checker precomputed about it.
struct Stream {
    std::vector<sc::Request> reqs;
    /// bit 0: the same proxy requested this (url, version) earlier;
    /// bit 1: another proxy requested it before the end of this round.
    std::vector<std::uint8_t> may_hit;
    std::array<std::vector<std::uint32_t>, kConnections> by_conn;
    std::size_t warm = 0;            ///< requests [0, warm) warm the caches
    std::size_t round_requests = 0;  ///< stream requests per measured round
    std::size_t rounds = 0;          ///< measured rounds the stream holds
    bool wraps = false;              ///< after the last round, start over at the first
    std::size_t left_out = 0;  ///< generated requests above max_object_bytes
    double generate_ns_per_req = 0;
};

std::size_t round_end(const Stream& s, std::size_t i) {
    if (i < s.warm) return s.warm;
    return s.warm + ((i - s.warm) / s.round_requests + 1) * s.round_requests;
}

void precompute_checks(Stream& s, int proxies) {
    std::unordered_map<std::string, std::uint32_t> ids;
    ids.reserve(s.reqs.size());
    std::vector<std::uint32_t> key(s.reqs.size());
    for (std::size_t i = 0; i < s.reqs.size(); ++i)
        key[i] = ids.try_emplace(doc_key(s.reqs[i]), static_cast<std::uint32_t>(ids.size()))
                     .first->second;
    constexpr std::uint32_t kNever = ~0u;
    std::vector<std::array<std::uint32_t, kMeshProxies>> first(ids.size());
    for (auto& f : first) f.fill(kNever);
    s.may_hit.assign(s.reqs.size(), 0);
    for (auto& v : s.by_conn) v.clear();
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
        const int conn = static_cast<int>(s.reqs[i].client_id % kConnections);
        s.by_conn[conn].push_back(static_cast<std::uint32_t>(i));
        const int p = conn % proxies;
        if (first[key[i]][p] != kNever) s.may_hit[i] |= 1;
        else first[key[i]][p] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
        const int p = static_cast<int>(s.reqs[i].client_id % kConnections) % proxies;
        const std::size_t end = round_end(s, i);
        for (int q = 0; q < proxies; ++q)
            if (q != p && first[key[i]][q] < end) s.may_hit[i] |= 2;
    }
}

struct Mesh {
    std::unique_ptr<sc::OriginServer> origin;
    std::vector<std::unique_ptr<sc::MiniProxy>> proxies;
    std::array<Conn, kConnections> conns;

    void stop() {
        for (auto& k : conns) k.c.reset();
        for (auto& p : proxies) p->stop();
        proxies.clear();
        if (origin) origin->stop();
        origin.reset();
    }
    ~Mesh() { stop(); }
};

std::unique_ptr<Mesh> start_mesh(int n, sc::ShareMode mode, std::uint64_t cache_bytes) {
    auto m = std::make_unique<Mesh>();
    m->origin = std::make_unique<sc::OriginServer>(sc::OriginServer::Config{});
    for (int i = 0; i < n; ++i) {
        sc::MiniProxyConfig c;
        c.id = static_cast<sc::NodeId>(i + 1);
        c.origin = m->origin->endpoint();
        c.cache_bytes = cache_bytes;
        c.mode = mode;
        c.workers = kWorkers;
        c.dynamic_membership = false;
        m->proxies.push_back(std::make_unique<sc::MiniProxy>(c));
    }
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (i != j)
                m->proxies[i]->add_sibling(m->proxies[j]->id(), m->proxies[j]->icp_endpoint(),
                                           m->proxies[j]->http_endpoint());
    for (auto& p : m->proxies) p->start();
    for (int j = 0; j < kConnections; ++j)
        m->conns[j].ep = m->proxies[j % n]->http_endpoint();
    return m;
}

/// Summary bootstrap: wait until every proxy holds a synced replica of
/// every sibling.
bool wait_synced(Mesh& m) {
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    const std::size_t want = m.proxies.size() - 1;
    while (now_ns() < deadline) {
        bool all = true;
        for (auto& p : m.proxies) all = all && p->synced_replicas() == want;
        if (all) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/// Replay stream[0, warm) over the 4 connections, unmeasured.
bool warm_up(Mesh& m, const Stream& s) {
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int j = 0; j < kConnections; ++j) {
        threads.emplace_back([&, j] {
            for (std::size_t i = 0; i < s.warm; ++i) {
                const sc::Request& r = s.reqs[i];
                if (r.client_id % kConnections != static_cast<std::uint32_t>(j)) continue;
                const Outcome o = fetch(m.conns[j], r.url, r.version, r.size);
                if (o.cls == Cls::failed || !o.body_ok) bad.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    return bad.load() == 0;
}

/// Sum of every series of a counter, or of a histogram's sum/count.
struct Totals {
    double counter = 0, sum = 0, count = 0;
};
Totals totals(const sc::obs::MetricsSnapshot& snap, const std::string& name) {
    Totals t;
    for (const auto& s : snap.series) {
        if (s.name != name) continue;
        t.counter += static_cast<double>(s.counter);
        t.sum += s.sum;
        t.count += static_cast<double>(s.observations);
    }
    return t;
}

sc::MiniProxyStats sum_stats(const Mesh& m) {
    sc::MiniProxyStats t;
    for (const auto& p : m.proxies) {
        const sc::MiniProxyStats s = p->stats();
        t.requests += s.requests;
        t.local_hits += s.local_hits;
        t.remote_hits += s.remote_hits;
        t.origin_fetches += s.origin_fetches;
        t.false_hit_queries += s.false_hit_queries;
        t.icp_queries_sent += s.icp_queries_sent;
        t.icp_queries_received += s.icp_queries_received;
        t.icp_replies_sent += s.icp_replies_sent;
        t.icp_replies_received += s.icp_replies_received;
        t.icp_stale_replies += s.icp_stale_replies;
        t.updates_sent += s.updates_sent;
        t.sibling_fetches += s.sibling_fetches;
        t.udp_bytes_sent += s.udp_bytes_sent;
        t.keepalives_sent += s.keepalives_sent;
        t.loop_wakeups += s.loop_wakeups;
    }
    return t;
}

struct LiveConfig {
    const char* name = "";
    int proxies = kMeshProxies;
    sc::ShareMode mode = sc::ShareMode::summary;
    bool hot = false;  ///< hot_local: one proxy, re-reads of a warmed set
};

/// Generate the mesh stream: the UPisa profile at scale 0.25, extended to
/// cover the warm-up plus as many rounds as the fastest plausible run needs.
Stream mesh_stream(const Options& opt, std::size_t max_rounds) {
    Stream s;
    s.warm = opt.quick ? 2000 : 20000;
    s.round_requests = opt.quick ? 1000 : 4000;
    sc::TraceProfile p = upisa_profile(0.25, opt.seed);
    p.requests = s.warm + s.round_requests * max_rounds;
    s.rounds = max_rounds;
    sc::TraceGenerator gen(p);
    const std::uint64_t t0 = now_ns();
    s.reqs.reserve(p.requests);
    std::uint64_t generated = 0;
    while (auto r = gen.next()) {
        ++generated;
        // Only cacheable documents (<= max_object_bytes) are replayed. The
        // larger ones are neither cached nor shared, so they exercise no
        // protocol layer, only bulk copying, and their Pareto tail makes the
        // cost of a run swing with the seed. Above write_buffer_limit they
        // also fail now and then (F1), which the F1 probes show instead.
        if (r->size > sc::kDefaultMaxObjectBytes) {
            ++s.left_out;
            continue;
        }
        s.reqs.push_back(std::move(*r));
    }
    s.rounds = (s.reqs.size() - std::min(s.reqs.size(), s.warm)) / s.round_requests;
    s.generate_ns_per_req =
        static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::uint64_t>(1, generated));
    return s;
}

/// Mesh caches: 10% of the infinite cache size of the first 100k replayed
/// requests (the length of the scale-0.25 profile), split over the proxies.
std::uint64_t mesh_cache_bytes(const Stream& s) {
    std::unordered_set<std::string> seen;
    std::uint64_t bytes = 0;
    const std::size_t n = std::min<std::size_t>(s.reqs.size(), 100'000);
    for (std::size_t i = 0; i < n; ++i)
        if (seen.insert(doc_key(s.reqs[i])).second) bytes += s.reqs[i].size;
    return std::max<std::uint64_t>(1 << 20, bytes / 10 / kMeshProxies);
}

/// hot_local stream: the trace's first `docs` distinct cacheable documents
/// (each requested once to warm the cache), then rounds of Zipf re-reads,
/// replayed cyclically.
Stream hot_stream(const Options& opt) {
    Stream s;
    const std::size_t docs = opt.quick ? 500 : 4000;
    s.round_requests = opt.quick ? 1000 : 4000;
    const sc::TraceProfile p = upisa_profile(0.25, opt.seed);
    sc::TraceGenerator gen(p);
    std::unordered_set<std::string> seen;
    std::vector<sc::Request> set;
    const std::uint64_t t0 = now_ns();
    std::uint64_t generated = 0;
    while (set.size() < docs) {
        auto r = gen.next();
        if (!r) break;
        ++generated;
        // One version per URL: a later version would replace the cached one.
        if (r->size > sc::kDefaultMaxObjectBytes) continue;
        if (seen.insert(r->url).second) set.push_back(std::move(*r));
    }
    s.generate_ns_per_req =
        static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::uint64_t>(1, generated));
    s.warm = set.size();
    sc::Rng rng(p.seed ^ 0x686f745f6c6f63ull);
    const sc::ZipfSampler zipf(set.size(), p.zipf_exponent);
    s.rounds = 50;
    s.wraps = true;
    const std::size_t total = s.warm + s.round_requests * s.rounds;
    s.reqs.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        sc::Request r = i < s.warm ? set[i] : set[zipf.sample(rng)];
        r.client_id = static_cast<std::uint32_t>(i);
        s.reqs.push_back(std::move(r));
    }
    return s;
}

Report run_live(const Options& opt, const LiveConfig& lc) {
    Report rep;
    const bool hot = lc.hot;
    // The mesh stream covers 40k requests/s for the whole run, a generous
    // upper bound.
    const std::size_t round_requests = opt.quick ? 1000 : 4000;
    const auto max_rounds = static_cast<std::size_t>(std::ceil(
        std::max(opt.seconds, 0.5) * 40'000.0 / static_cast<double>(round_requests)));

    // Set up several times (stream, mesh start, bootstrap, warm-up); setup_s
    // is their median and the last set-up is the one measured. hot_local's
    // set-up is short, so it takes more samples; a mesh set-up takes seconds.
    std::vector<double> setup_s;
    std::unique_ptr<Mesh> mesh;
    Stream s;
    std::uint64_t cache_bytes = 0;
    const int setups = hot ? 9 : 3;
    for (int attempt = 0; attempt < setups; ++attempt) {
        if (mesh) mesh->stop();
        mesh.reset();
        std::uint64_t t0 = now_ns();
        s = hot ? hot_stream(opt) : mesh_stream(opt, max_rounds);
        double spent = static_cast<double>(now_ns() - t0);
        if (attempt == setups - 1) precompute_checks(s, lc.proxies);  // the checker's work, not set-up
        t0 = now_ns();
        cache_bytes = hot ? 256ull << 20 : mesh_cache_bytes(s);
        mesh = start_mesh(lc.proxies, lc.mode, cache_bytes);
        if (lc.mode == sc::ShareMode::summary)
            rep.check(wait_synced(*mesh), "summary bootstrap did not sync every replica");
        rep.check(warm_up(*mesh, s), "a warm-up request failed");
        spent += static_cast<double>(now_ns() - t0);
        setup_s.push_back(spent / 1e9);
    }
    Mesh& m = *mesh;

    // ---- measured rounds ------------------------------------------------
    std::array<ThreadOut, kConnections> outs;
    std::atomic<bool> stop{false};
    std::size_t rounds_done = 0;
    std::vector<double> round_wall_ns;
    std::vector<std::uint64_t> round_process_cpu_ns;  ///< process CPU at each round's end
    std::uint64_t round_t0 = 0;
    const std::uint64_t fetch_timeout_ns = 2'000'000'000ull;

    const sc::MiniProxyStats st0 = sum_stats(m);
    const auto snap0 = sc::obs::metrics().snapshot();
    const std::uint64_t origin0 = m.origin->requests_served();
    const std::uint64_t origin_conn0 = m.origin->connections_accepted();
    std::uint64_t client_connects0 = 0;
    for (auto& k : m.conns) client_connects0 += k.connects;
    const HostCpu host0 = read_host_cpu(), pin0 = read_host_cpu(opt.cpu);
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline = start + static_cast<std::uint64_t>(opt.seconds * 1e9);
    round_t0 = start;

    auto on_round_end = [&]() noexcept {
        const std::uint64_t t = now_ns();
        round_wall_ns.push_back(static_cast<double>(t - round_t0));
        round_process_cpu_ns.push_back(process_cpu_ns());
        round_t0 = t;
        ++rounds_done;
        if (t >= deadline || (!s.wraps && rounds_done >= s.rounds)) stop.store(true);
    };
    std::barrier sync(kConnections, on_round_end);

    std::vector<std::thread> threads;
    for (int j = 0; j < kConnections; ++j) {
        threads.emplace_back([&, j] {
            ThreadOut& out = outs[j];
            Conn& k = m.conns[j];
            const std::uint64_t c0 = thread_cpu_ns();
            out.cpu_start_ns = c0;
            const auto& mine = s.by_conn[j];
            for (std::size_t r = 0;; ++r) {
                const bool traced = opt.trace && r % 2 == 1;
                const std::size_t begin = s.warm + (r % s.rounds) * s.round_requests;
                const std::size_t end = begin + s.round_requests;
                for (auto it = std::lower_bound(mine.begin(), mine.end(), begin);
                     it != mine.end() && *it < end; ++it) {
                    const std::uint32_t i = *it;
                    const sc::Request& q = s.reqs[i];
                    const std::uint64_t t0 = now_ns();
                    const Outcome o = fetch(k, q.url, q.version, q.size);
                    const double us = static_cast<double>(o.t_end - t0) / 1000.0;
                    if (o.cls == Cls::failed || us * 1000.0 > fetch_timeout_ns) {
                        ++out.failed;
                        if (o.cls != Cls::failed) ++out.slow;
                        if (!o.header_ok) ++out.bad_header;
                        continue;
                    }
                    if (!o.body_ok) ++out.bad_body;
                    out.lat_us.push_back(us);
                    if (traced) {
                        out.ttfb_us.push_back(static_cast<double>(o.t_hdr - t0) / 1000.0);
                        out.body_us.push_back(static_cast<double>(o.t_end - o.t_hdr) / 1000.0);
                    }
                    switch (o.cls) {
                        case Cls::local:
                            ++out.local;
                            out.local_us.push_back(us);
                            if (!(s.may_hit[i] & 1)) ++out.bad_local;
                            break;
                        case Cls::remote:
                            ++out.remote;
                            out.remote_us.push_back(us);
                            if (!(s.may_hit[i] & 2)) ++out.bad_remote;
                            break;
                        default:
                            ++out.miss;
                            out.miss_us.push_back(us);
                            if (out.miss_sizes.size() < 4096) out.miss_sizes.push_back(q.size);
                            break;
                    }
                }
                out.round_marks.push_back(out.lat_us.size());
                out.round_cpu_ns.push_back(thread_cpu_ns());
                sync.arrive_and_wait();
                if (stop.load()) break;
            }
            out.cpu_ns = thread_cpu_ns() - c0;
        });
    }
    for (auto& t : threads) t.join();
    const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
    const std::uint64_t cpu_total = process_cpu_ns() - cpu0;
    const HostShares host = host_shares(host0, read_host_cpu());
    const HostShares pin = host_shares(pin0, read_host_cpu(opt.cpu));
    const sc::MiniProxyStats st1 = sum_stats(m);
    const auto snap1 = sc::obs::metrics().snapshot();
    const std::uint64_t origin_served = m.origin->requests_served() - origin0;
    const std::uint64_t origin_conns = m.origin->connections_accepted() - origin_conn0;

    // ---- merge and check -------------------------------------------------
    ThreadOut all;
    std::uint64_t client_cpu = 0, client_connects = 0;
    for (auto& o : outs) {
        for (auto v : {&ThreadOut::lat_us, &ThreadOut::local_us, &ThreadOut::remote_us,
                        &ThreadOut::miss_us, &ThreadOut::ttfb_us, &ThreadOut::body_us})
            (all.*v).insert((all.*v).end(), (o.*v).begin(), (o.*v).end());
        all.miss_sizes.insert(all.miss_sizes.end(), o.miss_sizes.begin(), o.miss_sizes.end());
        all.local += o.local;
        all.remote += o.remote;
        all.miss += o.miss;
        all.failed += o.failed;
        all.bad_header += o.bad_header;
        all.bad_body += o.bad_body;
        all.bad_local += o.bad_local;
        all.bad_remote += o.bad_remote;
        all.slow += o.slow;
        client_cpu += o.cpu_ns;
    }
    for (auto& k : m.conns) client_connects += k.connects;
    client_connects -= client_connects0;

    // Per-round figures; the end-to-end metrics are their medians, so a
    // burst of host contention that hits a minority of the rounds does not
    // move them.
    std::vector<double> round_rps, round_p50, round_p90, round_cpu_us;
    for (std::size_t r = 0; r < rounds_done; ++r) {
        std::vector<double> lat;
        double client = 0;
        for (const auto& o : outs) {
            const std::size_t from = r == 0 ? 0 : o.round_marks[r - 1];
            lat.insert(lat.end(), o.lat_us.begin() + static_cast<std::ptrdiff_t>(from),
                       o.lat_us.begin() + static_cast<std::ptrdiff_t>(o.round_marks[r]));
            client += static_cast<double>(o.round_cpu_ns[r] -
                                          (r == 0 ? o.cpu_start_ns : o.round_cpu_ns[r - 1]));
        }
        const double process = static_cast<double>(
            round_process_cpu_ns[r] - (r == 0 ? cpu0 : round_process_cpu_ns[r - 1]));
        const double n = static_cast<double>(lat.size());
        round_rps.push_back(n / (round_wall_ns[r] / 1e9));
        round_p50.push_back(percentile(lat, 0.5));
        round_p90.push_back(percentile_sorted(lat, 0.9));
        round_cpu_us.push_back((process - client) / 1000.0 / static_cast<double>(s.round_requests));
    }

    const std::uint64_t stream_requests = rounds_done * s.round_requests;
    // Distinct stream requests measured (hot_local replays its rounds).
    const std::size_t measured_end =
        s.warm + std::min(rounds_done, s.rounds) * s.round_requests;
    const std::uint64_t ok = all.local + all.remote + all.miss;
    rep.attempted = stream_requests;
    rep.failed = all.failed;

    rep.check(ok + all.failed == stream_requests,
              "local + remote hits + misses + failed != attempted");
    rep.check(all.bad_header == 0, "a response status or size did not parse or match");
    rep.check(all.bad_body == 0, "a response body was not the origin's fill");
    rep.check(all.bad_local == 0, "a local hit without an earlier request at that proxy");
    rep.check(all.bad_remote == 0, "a remote hit without a request at another proxy");
    // Every stream document is within write_buffer_limit, so none may fail;
    // a request slower than fetch_timeout counts as failed (the F2 watch).
    rep.check(all.failed == 0, "a stream request failed or exceeded fetch_timeout");
    const sc::MiniProxyStats d{
        .requests = st1.requests - st0.requests,
        .local_hits = st1.local_hits - st0.local_hits,
        .remote_hits = st1.remote_hits - st0.remote_hits,
        .origin_fetches = st1.origin_fetches - st0.origin_fetches,
        .false_hit_queries = st1.false_hit_queries - st0.false_hit_queries,
        .icp_queries_sent = st1.icp_queries_sent - st0.icp_queries_sent,
        .icp_queries_received = st1.icp_queries_received - st0.icp_queries_received,
        .icp_replies_sent = st1.icp_replies_sent - st0.icp_replies_sent,
        .icp_replies_received = st1.icp_replies_received - st0.icp_replies_received,
        .icp_stale_replies = st1.icp_stale_replies - st0.icp_stale_replies,
        .updates_sent = st1.updates_sent - st0.updates_sent,
        .sibling_fetches = st1.sibling_fetches - st0.sibling_fetches,
        .udp_bytes_sent = st1.udp_bytes_sent - st0.udp_bytes_sent,
        .keepalives_sent = st1.keepalives_sent - st0.keepalives_sent,
        .loop_wakeups = st1.loop_wakeups - st0.loop_wakeups,
    };
    rep.check(d.requests == stream_requests, "the proxies did not count every request");
    rep.check(d.local_hits == all.local && d.remote_hits == all.remote,
              "proxy hit counters disagree with the client's classification");
    rep.check(origin_served == all.miss, "the origin did not serve exactly the misses");
    rep.check(d.origin_fetches == all.miss,
              "proxy origin-fetch counter disagrees with the client's misses");
    if (hot) {
        rep.check(all.local == ok, "a hot_local response was not a local hit");
        rep.check(origin_served == 0, "the origin served requests during hot_local");
    } else {
        // F1, outside the measured counts: oversize documents at proxy 1.
        int f1_failed = 0;
        for (int i = 0; i < kF1Probes; ++i)
            if (fetch(m.conns[0], kF1Url, 1, kF1Bytes).cls == Cls::failed) ++f1_failed;
        char f1[200];
        std::snprintf(f1, sizeof f1,
                      "F1: %d of %d requests for a %llu-byte document were cut off "
                      "(write_buffer_limit %llu B); not counted above",
                      f1_failed, kF1Probes, static_cast<unsigned long long>(kF1Bytes),
                      8ull << 20);
        rep.note(f1);
    }
    const std::uint64_t bound = infinite_cache_hits(s.reqs, s.warm, measured_end) +
                                (stream_requests - (measured_end - s.warm));
    rep.check(all.local + all.remote <= bound, "hit ratio exceeds the infinite-cache bound");
    const std::uint64_t nonlocal = d.requests - d.local_hits;
    if (lc.mode == sc::ShareMode::icp) {
        rep.check(d.icp_queries_sent == 3 * nonlocal,
                  "ICP queries != 3 x requests that were not local hits");
        rep.check(d.icp_replies_sent == d.icp_queries_sent &&
                      d.icp_replies_received + d.icp_stale_replies == d.icp_replies_sent,
                  "ICP replies != queries");
    } else if (lc.mode == sc::ShareMode::summary) {
        rep.check(d.icp_queries_sent <= 3 * nonlocal,
                  "more than 3 queries per request that was not a local hit");
    }

    // ---- metrics ----------------------------------------------------------
    const double reqs = static_cast<double>(rep.attempted);
    const double hit_ratio =
        ok == 0 ? 0.0 : static_cast<double>(all.local + all.remote) / static_cast<double>(ok);
    const double mesh_cpu_us = static_cast<double>(cpu_total - client_cpu) / 1000.0 / reqs;
    const double datagrams =
        totals(snap1, "sc_udp_datagrams_sent_total").counter -
        totals(snap0, "sc_udp_datagrams_sent_total").counter;
    const double peer_msgs = datagrams / reqs;
    const double peer_bytes = static_cast<double>(d.udp_bytes_sent) / reqs;

    char line[400];
    std::snprintf(line, sizeof line,
                  "%s: %llu rounds of %zu requests, %.2fs, %llu ok, %llu failed (%llu slower than "
                  "fetch_timeout), %zu generated requests above max_object_bytes left out; "
                  "cache %llu "
                  "B/proxy, %d workers/proxy; steal %.3f idle %.3f; cpu %d steal %.3f idle %.3f",
                  lc.name, static_cast<unsigned long long>(rounds_done), s.round_requests,
                  wall_s, static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(rep.failed),
                  static_cast<unsigned long long>(all.slow), s.left_out,
                  static_cast<unsigned long long>(cache_bytes), kWorkers, host.steal, host.idle,
                  opt.cpu, pin.steal, pin.idle);
    rep.note(line);
    std::snprintf(line, sizeof line,
                  "hits: local %llu remote %llu miss %llu, hit ratio %.4f (infinite-cache bound "
                  "%.4f); peer msgs/req %.4f bytes/req %.2f",
                  static_cast<unsigned long long>(all.local),
                  static_cast<unsigned long long>(all.remote),
                  static_cast<unsigned long long>(all.miss), hit_ratio,
                  static_cast<double>(bound) / static_cast<double>(std::max<std::uint64_t>(1, stream_requests)),
                  peer_msgs, peer_bytes);
    rep.note(line);
    std::snprintf(line, sizeof line,
                  "whole run: %.0f req/s, %.2f us mesh CPU/req; per-round medians: %.0f req/s, "
                  "%.2f us mesh CPU/req",
                  static_cast<double>(ok) / wall_s, mesh_cpu_us, median(round_rps),
                  median(round_cpu_us));
    rep.note(line);
    rep.note(tail_line("latency", all.lat_us));
    const double p50_local = percentile(all.local_us, 0.5);
    const double p50_remote = percentile(all.remote_us, 0.5);
    const double p50_miss = percentile(all.miss_us, 0.5);
    std::snprintf(line, sizeof line,
                  "class p50: local %.1fus (n=%zu) remote %.1fus (n=%zu) miss %.1fus (n=%zu)",
                  p50_local, all.local_us.size(), p50_remote, all.remote_us.size(), p50_miss,
                  all.miss_us.size());
    rep.note(line);

    if (!opt.trace) {
        rep.metric("throughput_rps", median(round_rps));
        rep.metric("latency_p50_us", median(round_p50));
        rep.metric("latency_p90_us", median(round_p90));
        rep.metric("hit_ratio", hit_ratio);
        rep.metric("mesh_cpu_us_per_req", median(round_cpu_us));
        rep.metric("setup_s", median(setup_s));
        return rep;
    }

    // ---- traced run: per-layer metrics -----------------------------------
    SpanSummary spans;
    for (const double v : all.ttfb_us) spans.add("client.ttfb", v * 1000.0);
    for (const double v : all.body_us) spans.add("client.body", v * 1000.0);
    rep.metric("local_hit_p50_us", p50_local);
    rep.metric("remote_hit_p50_us", p50_remote);
    rep.metric("miss_p50_us", p50_miss);
    rep.metric("peer_msgs_per_req", peer_msgs);
    rep.metric("peer_bytes_per_req", peer_bytes);
    rep.metric("proto.ttfb_p50_us", percentile(all.ttfb_us, 0.5));
    rep.metric("proto.body_p50_us", percentile(all.body_us, 0.5));
    // TCP connects the proxies made to siblings: all connects minus the
    // clients' (re)connects and the proxies' origin connections.
    const double connects = totals(snap1, "sc_tcp_connects_total").counter -
                            totals(snap0, "sc_tcp_connects_total").counter -
                            static_cast<double>(client_connects) -
                            static_cast<double>(origin_conns);
    rep.metric("proto.sibling_connects_per_req", std::max(0.0, connects) / reqs);
    rep.metric("net.loop_wakeups_per_req", static_cast<double>(d.loop_wakeups) / reqs);
    const double wait_s = totals(snap1, "sc_event_backend_wait_seconds").sum -
                          totals(snap0, "sc_event_backend_wait_seconds").sum;
    rep.metric("net.loop_wait_us_per_req", wait_s * 1e6 / reqs);
    rep.metric("icp.queries_per_req", static_cast<double>(d.icp_queries_sent) / reqs);
    rep.metric("icp.replies_per_req", static_cast<double>(d.icp_replies_sent) / reqs);
    rep.metric("icp.updates_per_req", static_cast<double>(d.updates_sent) / reqs);
    // Summary-distribution bytes: every UDP payload byte minus queries,
    // replies and liveness probes, whose sizes the codec fixes per URL.
    double qr_bytes = 0;
    {
        sc::IcpQuery q;
        sc::IcpReply rp;
        double url_len = 0;
        std::uint64_t n = 0;
        for (std::size_t i = s.warm; i < measured_end; ++i, ++n)
            url_len += static_cast<double>(s.reqs[i].url.size());
        const double mean_url = n == 0 ? 0 : url_len / static_cast<double>(n);
        q.url = std::string(static_cast<std::size_t>(std::lround(mean_url)), 'u');
        rp.url = q.url;
        rp.opcode = sc::IcpOpcode::secho;
        const double qsize = static_cast<double>(sc::encode_query(q).size());
        const double rsize = static_cast<double>(sc::encode_reply(rp).size());
        rp.url.clear();
        const double esize = static_cast<double>(sc::encode_reply(rp).size());
        qr_bytes = qsize * static_cast<double>(d.icp_queries_sent) +
                   rsize * static_cast<double>(d.icp_replies_sent) +
                   esize * static_cast<double>(d.keepalives_sent);
    }
    rep.metric("icp.update_bytes_per_req",
               std::max(0.0, static_cast<double>(d.udp_bytes_sent) - qr_bytes) / reqs);
    rep.metric("icp.timeouts_per_req",
               (totals(snap1, "sc_proxy_icp_timeouts_total").counter -
                totals(snap0, "sc_proxy_icp_timeouts_total").counter) / reqs);
    const Totals b1 = totals(snap1, "sc_core_delta_batch_size");
    const Totals b0 = totals(snap0, "sc_core_delta_batch_size");
    rep.metric("core.delta_batch_size",
               b1.count > b0.count ? (b1.sum - b0.sum) / (b1.count - b0.count) : 0.0);
    rep.metric("core.false_hit_queries_per_req",
               static_cast<double>(d.false_hit_queries) / reqs);
    rep.metric("cache.lock_wait_us_per_req",
               (totals(snap1, "sc_cache_shard_lock_wait").sum -
                totals(snap0, "sc_cache_shard_lock_wait").sum) * 1e6 / reqs);

    // Tracing overhead: odd rounds recorded spans, even rounds did not.
    double traced_ns = 0, plain_ns = 0;
    std::size_t traced_n = 0, plain_n = 0;
    for (std::size_t r = 0; r < round_wall_ns.size(); ++r) {
        if (r % 2 == 1) traced_ns += round_wall_ns[r], ++traced_n;
        else plain_ns += round_wall_ns[r], ++plain_n;
    }
    const double per_round = static_cast<double>(s.round_requests);
    const double overhead =
        traced_n == 0 || plain_n == 0
            ? 0.0
            : (traced_ns / static_cast<double>(traced_n) - plain_ns / static_cast<double>(plain_n)) /
                  per_round / 1000.0;
    rep.metric("trace_overhead_us_per_req", overhead);
    std::snprintf(line, sizeof line,
                  "tracing overhead: %.3fus/request (%zu traced vs %zu untraced rounds)",
                  overhead, traced_n, plain_n);
    rep.note(line);

    m.stop();
    mesh.reset();

    // Layer measurements on this workload's own requests.
    std::vector<sc::Request> window(s.reqs.begin(),
                                    s.reqs.begin() + static_cast<std::ptrdiff_t>(measured_end));
    LayerInputs in;
    in.trace = &window;
    in.trace_generate_ns = s.generate_ns_per_req;
    in.engine_cfg.num_proxies = static_cast<std::uint32_t>(lc.proxies);
    in.engine_cfg.cache_bytes_per_proxy = cache_bytes;
    in.engine_cfg.scheme = sc::SharingScheme::simple;
    in.engine_cfg.protocol = lc.mode == sc::ShareMode::summary ? sc::QueryProtocol::summary
                             : lc.mode == sc::ShareMode::icp   ? sc::QueryProtocol::icp
                                                               : sc::QueryProtocol::none;
    in.engine_cfg.summary_kind = sc::SummaryKind::bloom;
    in.miss_sizes = all.miss_sizes;
    measure_layers(in, rep, spans);
    write_spans(opt, spans);
    return rep;
}

}  // namespace

Report run_mesh(const Options& opt, sc::ShareMode mode) {
    LiveConfig lc;
    lc.name = mode == sc::ShareMode::icp ? "mesh_icp" : "mesh_summary";
    lc.mode = mode;
    return run_live(opt, lc);
}

Report run_hot_local(const Options& opt) {
    LiveConfig lc;
    lc.name = "hot_local";
    lc.proxies = 1;
    lc.mode = sc::ShareMode::none;
    lc.hot = true;
    return run_live(opt, lc);
}

}  // namespace scbench
