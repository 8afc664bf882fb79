// cops_e2e — the end-to-end COPS-HTTP benchmark.
//
// One run = one workload.  It builds the real nserver::Server with
// CopsHttpServer::default_options() (the paper's Table 1 settings: one
// dispatcher, a 2-thread processor pool, 20 MB LRU cache, writev, pooled
// buffers) on epoll, optionally behind proxy::ProxyServer, drives it over
// loopback from this process's main thread, verifies every reply, and
// prints one JSON result line last.
//
//   --trace 0   end-to-end metrics, with no instrumentation in the server;
//   --trace 1   per-layer metrics: the same server with profiling on and
//               its hooks wrapped in TracedHooks, plus per-thread counters,
//               operator-new counts and the thread-per-connection baseline.
//
// Measurement alternates half-second closed-loop and open-loop slices, and
// each metric is the median over slices, so one disturbed slice cannot move
// a run's result.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/threaded_server.hpp"
#include "driver.hpp"
#include "http/http_server.hpp"
#include "loadgen/fileset.hpp"
#include "net/inet_address.hpp"
#include "nserver/options.hpp"
#include "nserver/server.hpp"
#include "probes.hpp"
#include "proxy/proxy_server.hpp"
#include "samples.hpp"
#include "traced_hooks.hpp"
#include "verify.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr size_t kConnections = 4;
constexpr double kSliceSeconds = 0.25;
constexpr int kSetups = 5;  // set-up is repeated and its median reported
constexpr size_t kSequenceLength = 1 << 19;
constexpr size_t kSmallFiles = 16;
constexpr size_t kSmallFileBytes = 2048;
constexpr size_t kSpecwebDirectories = 41;  // 41 × ~5 MB = the paper's 204.8 MB
// The generator's own lateness past which a run is flagged: beyond it the
// schedule, not the server, would shape the tail.
constexpr double kLatenessFlagUs = 1000.0;

struct Workload {
  const char* name;
  bool specweb;            // SpecWeb99 file set (else 16 × 2 KB files)
  bool proxied;            // through proxy::ProxyServer
  int requests_per_conn;   // 0 = keep-alive for the whole run
  double open_rate;        // open-loop offered rate, req/s
  uint64_t warmup;         // warm-up replies, part of set-up
};

// Open-loop rates are fixed at about half the closed-loop rate the seed
// code reaches on a 4-core host (medians of 55k, 34k and 33k req/s), so the
// open loop measures latency below saturation.
constexpr Workload kWorkloads[] = {
    {"small_keepalive", false, false, 0, 27000, 4000},
    {"specweb_mix", true, false, 5, 17000, 8000},
    {"proxied_keepalive", false, true, 0, 16500, 4000},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data = ".bench_data";
  std::string commit = "unknown";
};

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  std::string root;  // docroot
  Catalog catalog;
  std::vector<uint32_t> sequence;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool add_file(Catalog& catalog, const std::string& root,
              const std::string& url) {
  const auto bytes = read_file(root + url);
  if (!bytes) return false;
  catalog.paths.push_back(url);
  catalog.expect.push_back(
      {bytes->size(), checksum(bytes->data(), bytes->size())});
  catalog.max_size = std::max<uint64_t>(catalog.max_size, bytes->size());
  return true;
}

// The file set is fixed (cached on disk across runs); the seed picks the
// request sequence.
std::optional<Inputs> make_inputs(const Workload& w, const Args& args) {
  Inputs in;
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 17);
  if (!w.specweb) {
    in.root = args.data + "/small";
    fs::create_directories(in.root);
    std::mt19937 fill(7);
    for (size_t i = 0; i < kSmallFiles; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "/f%02zu.html", i);
      const std::string path = in.root + name;
      std::error_code ec;
      if (!fs::exists(path, ec) || fs::file_size(path, ec) != kSmallFileBytes) {
        std::string body(kSmallFileBytes, 'x');
        for (auto& ch : body) ch = static_cast<char>('a' + fill() % 26);
        std::ofstream(path, std::ios::binary) << body;
      }
      if (!add_file(in.catalog, in.root, name)) return std::nullopt;
    }
    std::uniform_int_distribution<uint32_t> pick(0, kSmallFiles - 1);
    in.sequence.resize(kSequenceLength);
    for (auto& s : in.sequence) s = pick(rng);
    return in;
  }
  in.root = args.data + "/specweb";
  cops::loadgen::FilesetConfig cfg;
  cfg.root = in.root;
  cfg.directories = kSpecwebDirectories;
  if (!cops::loadgen::generate_fileset(cfg).is_ok()) return std::nullopt;
  std::unordered_map<std::string, uint32_t> index;
  for (size_t d = 0; d < cfg.directories; ++d) {
    for (int c = 0; c < cops::loadgen::kClassesPerDir; ++c) {
      for (int f = 0; f < cops::loadgen::kFilesPerClass; ++f) {
        const std::string url = cops::loadgen::file_url(d, c, f);
        index.emplace(url, static_cast<uint32_t>(in.catalog.paths.size()));
        if (!add_file(in.catalog, in.root, url)) return std::nullopt;
      }
    }
  }
  const cops::loadgen::WorkloadSampler sampler(cfg);
  std::mt19937 srng(static_cast<unsigned>(rng()));
  in.sequence.resize(kSequenceLength);
  for (auto& s : in.sequence) s = index.at(sampler.sample(srng));
  return in;
}

// ---- the system under test --------------------------------------------------

struct Tier {
  std::shared_ptr<cops::http::HttpAppHooks> http;
  std::shared_ptr<TracedHooks> traced;
  std::unique_ptr<cops::nserver::Server> server;
  std::unique_ptr<cops::proxy::ProxyServer> proxy;
  uint16_t port = 0;

  Tier() = default;
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;
  ~Tier() {
    if (proxy) proxy->stop();
    if (server) server->stop();
  }
};

std::unique_ptr<Tier> start_tier(const Workload& w, const std::string& root,
                                 bool traced, size_t span_capacity) {
  auto tier = std::make_unique<Tier>();
  auto options = cops::http::CopsHttpServer::default_options();
  options.profiling = traced;
  cops::http::HttpServerConfig config;
  config.doc_root = root;
  tier->http = std::make_shared<cops::http::HttpAppHooks>(config);
  std::shared_ptr<cops::nserver::AppHooks> hooks = tier->http;
  if (traced) {
    tier->traced = std::make_shared<TracedHooks>(tier->http, span_capacity);
    hooks = tier->traced;
  }
  tier->server = std::make_unique<cops::nserver::Server>(options, hooks);
  if (auto st = tier->server->start(); !st.is_ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.message().c_str());
    return nullptr;
  }
  tier->port = tier->server->port();
  if (w.proxied) {
    cops::proxy::ProxyConfig pc;
    pc.upstream_mode = cops::nserver::UpstreamMode::kPooled;
    tier->proxy = std::make_unique<cops::proxy::ProxyServer>(pc);
    tier->proxy->add_backend(cops::net::InetAddress::loopback(tier->port));
    if (auto st = tier->proxy->start(); !st.is_ok()) {
      std::fprintf(stderr, "proxy start failed: %s\n", st.message().c_str());
      return nullptr;
    }
    tier->port = tier->proxy->port();
  }
  return tier;
}

// Counter reconciliation: every reply the client verified was produced by
// the server (and, through the proxy, relayed once per backend request).
// The server counts a reply just before or while it is written, so allow a
// moment for the last counters to settle.
std::string reconcile(const Tier& tier, uint64_t client_replies) {
  std::string why;
  for (int attempt = 0; attempt < 100; ++attempt) {
    why.clear();
    const uint64_t served = tier.http->responses_sent();
    if (served != client_replies) {
      why = "server replies " + std::to_string(served) + " != client replies " +
            std::to_string(client_replies);
    }
    if (why.empty() && tier.server->options().profiling) {
      const uint64_t sent = tier.server->profile().replies_sent;
      if (sent != client_replies) {
        why = "profiler replies_sent " + std::to_string(sent) +
              " != client replies " + std::to_string(client_replies);
      }
    }
    if (why.empty() && tier.proxy) {
      const auto& pc = tier.proxy->counters();
      if (pc.requests.load() != served || pc.responses.load() != served) {
        why = "proxy requests " + std::to_string(pc.requests.load()) +
              " / responses " + std::to_string(pc.responses.load()) +
              " != backend replies " + std::to_string(served);
      }
    }
    if (why.empty()) return why;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return why;
}

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void add(const SliceStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    if (first_failure.empty()) first_failure = s.first_failure;
  }
};

double per(double num, uint64_t den) {
  return den ? num / static_cast<double>(den) : 0.0;
}

struct ClosedSample {
  double rps = 0;
  double mbps = 0;
  double cpu_us_per_req = 0;
  SliceStats stats;
};

// One closed-loop slice, with the server's CPU cost: process CPU minus the
// generator's (this thread's) own.
ClosedSample closed_slice(Driver& driver) {
  const int64_t p0 = process_cpu_ns();
  const int64_t t0 = thread_cpu_ns();
  ClosedSample out;
  out.stats = driver.closed(kSliceSeconds);
  const int64_t t1 = thread_cpu_ns();
  const int64_t p1 = process_cpu_ns();
  const auto& s = out.stats;
  out.rps = static_cast<double>(s.completed_in_window) / s.window_s;
  out.mbps = static_cast<double>(s.body_bytes_in_window) / s.window_s / 1e6;
  out.cpu_us_per_req =
      s.completed ? static_cast<double>((p1 - p0) - (t1 - t0)) / 1e3 /
                        static_cast<double>(s.completed)
                  : 0.0;
  return out;
}

std::string steal_share(const HostTicks& a, const HostTicks& b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%",
                100.0 * per(static_cast<double>(b.steal - a.steal),
                            b.total - a.total));
  return buf;
}

std::string fingerprint(const Args& args, const Tier& tier) {
  utsname u{};
  uname(&u);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"kernel\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"io_backend\": \"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), u.release, E2E_BUILD_TYPE,
      args.commit.c_str(),
      cops::nserver::to_string(tier.server->effective_io_backend()));
  return buf;
}

void emit(const Totals& totals, bool correct,
          const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---- --trace 0: end-to-end ---------------------------------------------------

int run_end_to_end(const Workload& w, const Args& args, const Inputs& in) {
  DriverConfig dc;
  dc.connections = kConnections;
  dc.requests_per_conn = w.requests_per_conn;
  Totals totals;
  uint64_t warmup_replies = 0;

  // Set-up, repeated: server construction through the end of warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<Tier> tier;
  std::unique_ptr<Driver> driver;
  for (int i = 0; i < kSetups; ++i) {
    driver.reset();
    tier.reset();
    const int64_t t0 = now_ns();
    tier = start_tier(w, in.root, /*traced=*/false, 0);
    if (!tier) return 1;
    dc.port = tier->port;
    driver = std::make_unique<Driver>(dc, in.catalog, in.sequence, args.seed);
    const SliceStats warm = driver->count(w.warmup);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    totals.add(warm);
    warmup_replies = warm.completed;
  }

  const int rounds = std::max(1, static_cast<int>(std::lround(
                                     args.seconds / (2 * kSliceSeconds))));
  std::vector<double> rps, mbps, cpu, p50, p99;
  const HostTicks ticks0 = host_ticks();
  std::vector<double> all_latency, all_lateness;
  uint64_t measured_replies = 0;
  for (int r = 0; r < rounds; ++r) {
    ClosedSample c = closed_slice(*driver);
    rps.push_back(c.rps);
    mbps.push_back(c.mbps);
    cpu.push_back(c.cpu_us_per_req);
    totals.add(c.stats);
    measured_replies += c.stats.completed;

    SliceStats o = driver->open(kSliceSeconds, w.open_rate);
    totals.add(o);
    measured_replies += o.completed;
    all_latency.insert(all_latency.end(), o.latency_us.begin(),
                       o.latency_us.end());
    all_lateness.insert(all_lateness.end(), o.lateness_us.begin(),
                        o.lateness_us.end());
    p50.push_back(quantile(o.latency_us, 0.5));
    p99.push_back(quantile(o.latency_us, 0.99));
  }
  const HostTicks ticks1 = host_ticks();
  driver.reset();
  const std::string mismatch =
      reconcile(*tier, warmup_replies + measured_replies);

  const size_t n = all_latency.size();
  const double tail_q = tail_quantile_level(n);
  const double lateness_p99 = quantile(all_lateness, 0.99);
  std::printf("# workload %s seed %llu: %d closed + %d open slices of %.2f s, "
              "%zu connections\n",
              w.name, static_cast<unsigned long long>(args.seed), rounds,
              rounds, kSliceSeconds, kConnections);
  std::printf("# fingerprint %s\n", fingerprint(args, *tier).c_str());
  std::printf("# host steal during measurement: %s of CPU time\n",
              steal_share(ticks0, ticks1).c_str());
  std::printf("# open loop at %.0f req/s: %zu samples; median slice p99 "
              "%.1f us (not gated: host stalls dominate it); pooled p50 %.1f "
              "us, pooled p%g %.1f us (highest percentile with >=10 samples "
              "beyond it)\n",
              w.open_rate, n, median(p99), quantile(all_latency, 0.5),
              tail_q * 100, quantile(all_latency, tail_q));
  std::printf("# generator lateness p99 %.1f us%s\n", lateness_p99,
              lateness_p99 > kLatenessFlagUs
                  ? "  FLAG: the generator fell behind its schedule"
                  : "");
  std::printf("# error_rate %.6f (%llu failed of %llu attempted)%s%s\n",
              per(static_cast<double>(totals.failed), totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted),
              totals.first_failure.empty() ? "" : "; first failure: ",
              totals.first_failure.c_str());
  std::printf("# reconciliation %s\n",
              mismatch.empty() ? "ok" : mismatch.c_str());
  tier.reset();

  const std::vector<Metric> metrics = {
      {"throughput_rps", median(rps), "req/s"},
      {"goodput_MBps", median(mbps), "MB/s"},
      {"latency_p50_us", median(p50), "us"},
      {"cpu_us_per_req", median(cpu), "us"},
      {"setup_s", median(setup_s), "s"},
  };
  const bool correct = totals.failed == 0 && mismatch.empty() && n >= 1000;
  emit(totals, correct, metrics);
  return 0;
}

// ---- --trace 1: per layer -------------------------------------------------------

// Counters sampled around the traced closed-loop slices.
struct LayerSnapshot {
  ThreadTable threads;
  cops::nserver::ProfilerSnapshot profile;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  AllocTotals alloc;
  uint64_t decode_calls = 0, decoded = 0;
  uint64_t proxy_reuse = 0, proxy_miss = 0;
};

LayerSnapshot snapshot(const Tier& tier, pid_t generator) {
  LayerSnapshot s;
  s.threads = read_threads(generator);
  s.profile = tier.server->profile();
  auto* cache = tier.server->cache();
  s.cache_hits = cache->hits();
  s.cache_misses = cache->misses();
  s.cache_evictions = cache->evictions();
  s.alloc = alloc_totals();
  s.decode_calls = tier.traced->decode_calls();
  s.decoded = tier.traced->decoded_requests();
  if (tier.proxy) {
    s.proxy_reuse = tier.proxy->pool_reuse_total();
    s.proxy_miss = tier.proxy->pool_miss_total();
  }
  return s;
}

// Sum of (after - before) over slices, per counter.
struct LayerTotals {
  uint64_t requests = 0;
  int64_t generator_cpu_ns = 0;
  ClassDelta threads;
  uint64_t accepts = 0, writevs = 0, copied = 0, sendfile = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t alloc_count = 0, alloc_bytes = 0;
  uint64_t decode_calls = 0, decoded = 0;
  uint64_t proxy_reuse = 0, proxy_miss = 0;

  void add(const LayerSnapshot& a, const LayerSnapshot& b) {
    const ClassDelta d = diff_threads(a.threads, b.threads);
    threads.reactor_cpu_ns += d.reactor_cpu_ns;
    threads.proxy_cpu_ns += d.proxy_cpu_ns;
    threads.worker_cpu_ns += d.worker_cpu_ns;
    threads.syscr += d.syscr;
    threads.syscw += d.syscw;
    threads.voluntary_switches += d.voluntary_switches;
    accepts += b.profile.connections_accepted - a.profile.connections_accepted;
    writevs += b.profile.send_writev_calls - a.profile.send_writev_calls;
    copied += b.profile.send_bytes_copied - a.profile.send_bytes_copied;
    sendfile += b.profile.send_sendfile_bytes - a.profile.send_sendfile_bytes;
    pool_hits += b.profile.pool_hits - a.profile.pool_hits;
    pool_misses += b.profile.pool_misses - a.profile.pool_misses;
    cache_hits += b.cache_hits - a.cache_hits;
    cache_misses += b.cache_misses - a.cache_misses;
    cache_evictions += b.cache_evictions - a.cache_evictions;
    alloc_count += b.alloc.count - a.alloc.count;
    alloc_bytes += b.alloc.bytes - a.alloc.bytes;
    decode_calls += b.decode_calls - a.decode_calls;
    decoded += b.decoded - a.decoded;
    proxy_reuse += b.proxy_reuse - a.proxy_reuse;
    proxy_miss += b.proxy_miss - a.proxy_miss;
  }
};

// Per-client-request self time: the client's span minus the part of it the
// server's hook spans cover (their union: Handle can run Encode Reply
// inside it when the file is cached).
std::vector<double> framework_self_us(std::vector<ClientSpan> client,
                                      std::vector<HookSpan> hooks) {
  std::sort(client.begin(), client.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::sort(hooks.begin(), hooks.end(), [](const auto& a, const auto& b) {
    return a.id != b.id ? a.id < b.id : a.start_ns < b.start_ns;
  });
  std::vector<double> out;
  out.reserve(client.size());
  size_t h = 0;
  for (const auto& c : client) {
    while (h < hooks.size() && hooks[h].id < c.id) ++h;
    int64_t covered = 0;
    int64_t reach = c.send_ns;
    for (size_t k = h; k < hooks.size() && hooks[k].id == c.id; ++k) {
      const int64_t s = std::max(hooks[k].start_ns, reach);
      const int64_t e = std::min(hooks[k].end_ns, c.done_ns);
      if (e > s) covered += e - s;
      reach = std::max(reach, e);
    }
    out.push_back(static_cast<double>(c.done_ns - c.send_ns - covered) / 1e3);
  }
  return out;
}

void write_trace(const std::string& path, const std::vector<ClientSpan>& client,
                 const std::vector<HookSpan>& hooks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "kind,id,start_ns,end_ns\n");
  for (const auto& c : client) {
    std::fprintf(f, "client,%llu,%lld,%lld\n",
                 static_cast<unsigned long long>(c.id),
                 static_cast<long long>(c.send_ns),
                 static_cast<long long>(c.done_ns));
  }
  static const char* kNames[] = {"decode", "handle", "encode_reply"};
  for (const auto& s : hooks) {
    std::fprintf(f, "%s,%llu,%lld,%lld\n", kNames[static_cast<int>(s.kind)],
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

// The paper's Fig 3 comparator: the thread-per-connection server on the
// same files and client model (reference only).
double baseline_rps(const Workload& w, const Args& args, const Inputs& in,
                    Totals& totals) {
  cops::baseline::ThreadedServerConfig bc;
  bc.doc_root = in.root;
  // Its default backlog of 32 models Apache's SYN drops under overload;
  // with specweb_mix's reconnects that would turn into 1 s SYN retries.
  bc.listen_backlog = 512;
  cops::baseline::ThreadedHttpServer server(bc);
  if (!server.start().is_ok()) return 0.0;
  DriverConfig dc;
  dc.port = server.port();
  dc.connections = kConnections;
  dc.requests_per_conn = w.requests_per_conn;
  std::vector<double> rps;
  {
    Driver driver(dc, in.catalog, in.sequence, args.seed);
    totals.add(driver.count(w.warmup / 4));
    for (int i = 0; i < 4; ++i) {
      const SliceStats s = driver.closed(kSliceSeconds);
      totals.add(s);
      rps.push_back(static_cast<double>(s.completed_in_window) / s.window_s);
    }
  }
  server.stop();
  return median(rps);
}

int run_traced(const Workload& w, const Args& args, const Inputs& in) {
  exclude_this_thread_from_alloc_count();
  const pid_t generator = current_tid();
  const size_t span_capacity =
      static_cast<size_t>(w.open_rate * args.seconds * 1.2) + 1024;
  auto plain = start_tier(w, in.root, /*traced=*/false, 0);
  auto traced = start_tier(w, in.root, /*traced=*/true, span_capacity);
  if (!plain || !traced) return 1;

  DriverConfig dc;
  dc.connections = kConnections;
  dc.requests_per_conn = w.requests_per_conn;
  dc.port = plain->port;
  Driver plain_driver(dc, in.catalog, in.sequence, args.seed);
  dc.port = traced->port;
  dc.tag_requests = true;
  Driver traced_driver(dc, in.catalog, in.sequence, args.seed);

  Totals totals;
  uint64_t plain_replies = 0, traced_replies = 0;
  SliceStats warm = plain_driver.count(w.warmup);
  totals.add(warm);
  plain_replies += warm.completed;
  warm = traced_driver.count(w.warmup);
  totals.add(warm);
  traced_replies += warm.completed;

  set_alloc_counting(true);
  const HostTicks ticks0 = host_ticks();
  const int rounds = std::max(1, static_cast<int>(std::lround(
                                     args.seconds / (3 * kSliceSeconds))));
  std::vector<double> plain_cpu, traced_cpu, lateness, latency;
  std::vector<ClientSpan> client_spans;
  LayerTotals layer;
  std::array<int64_t, cops::nserver::kStageCount> stage_sum{};
  std::array<uint64_t, cops::nserver::kStageCount> stage_count{};
  for (int r = 0; r < rounds; ++r) {
    ClosedSample p = closed_slice(plain_driver);
    plain_cpu.push_back(p.cpu_us_per_req);
    totals.add(p.stats);
    plain_replies += p.stats.completed;

    const LayerSnapshot before = snapshot(*traced, generator);
    const int64_t g0 = thread_cpu_ns();
    ClosedSample t = closed_slice(traced_driver);
    layer.generator_cpu_ns += thread_cpu_ns() - g0;
    const LayerSnapshot after = snapshot(*traced, generator);
    layer.add(before, after);
    layer.requests += t.stats.completed;
    traced_cpu.push_back(t.cpu_us_per_req);
    totals.add(t.stats);
    traced_replies += t.stats.completed;

    const auto stages0 = traced->server->profile().stages;
    traced->traced->set_recording(true);
    SliceStats o = traced_driver.open(kSliceSeconds, w.open_rate);
    traced->traced->set_recording(false);
    const auto stages1 = traced->server->profile().stages;
    for (size_t i = 0; i < cops::nserver::kStageCount; ++i) {
      stage_sum[i] += stages1[i].sum_micros() - stages0[i].sum_micros();
      stage_count[i] += stages1[i].count() - stages0[i].count();
    }
    totals.add(o);
    traced_replies += o.completed;
    latency.insert(latency.end(), o.latency_us.begin(), o.latency_us.end());
    lateness.insert(lateness.end(), o.lateness_us.begin(), o.lateness_us.end());
    client_spans.insert(client_spans.end(), o.spans.begin(), o.spans.end());
  }
  set_alloc_counting(false);
  const HostTicks ticks1 = host_ticks();

  std::string mismatch = reconcile(*plain, plain_replies);
  if (mismatch.empty()) mismatch = reconcile(*traced, traced_replies);
  const std::vector<HookSpan> hook_spans = traced->traced->spans();
  const bool traced_overflow = traced->traced->spans_overflowed();
  const std::string fp = fingerprint(args, *traced);

  std::vector<double> decode_ns, handle_ns, encode_ns;
  for (const auto& s : hook_spans) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.kind) {
      case HookKind::kDecode: decode_ns.push_back(d); break;
      case HookKind::kHandle: handle_ns.push_back(d); break;
      case HookKind::kEncodeReply: encode_ns.push_back(d); break;
    }
  }
  std::vector<double> self_us = framework_self_us(client_spans, hook_spans);
  size_t unlinked = 0;
  {
    std::vector<uint64_t> ids;
    for (const auto& s : hook_spans) ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    for (const auto& c : client_spans) {
      if (!std::binary_search(ids.begin(), ids.end(), c.id)) ++unlinked;
    }
  }
  write_trace(args.data + "/trace-" + w.name + ".csv", client_spans,
              hook_spans);
  plain_driver.disconnect();
  traced_driver.disconnect();
  plain.reset();
  traced.reset();

  const double base_rps = baseline_rps(w, args, in, totals);

  const uint64_t n = layer.requests;
  auto stage_mean = [&](cops::nserver::Stage s) {
    const auto i = static_cast<size_t>(s);
    return per(static_cast<double>(stage_sum[i]), stage_count[i]);
  };
  using cops::nserver::Stage;
  const std::vector<Metric> metrics = {
      {"loadgen.lateness_p99_us", quantile(lateness, 0.99), "us"},
      {"loadgen.cpu_us_per_req", per(layer.generator_cpu_ns / 1e3, n), "us"},
      {"loadgen.latency_samples", static_cast<double>(latency.size()), "count"},
      {"loadgen.latency_p99_us", quantile(latency, 0.99), "us"},
      {"net.reactor_cpu_us_per_req", per(layer.threads.reactor_cpu_ns / 1e3, n),
       "us"},
      {"net.read_calls_per_req", per(static_cast<double>(layer.threads.syscr), n),
       "count"},
      {"net.write_calls_per_req",
       per(static_cast<double>(layer.threads.syscw), n), "count"},
      {"net.accepts_per_req", per(static_cast<double>(layer.accepts), n),
       "count"},
      {"nserver.worker_cpu_us_per_req",
       per(layer.threads.worker_cpu_ns / 1e3, n), "us"},
      {"nserver.ctx_switches_per_req",
       per(static_cast<double>(layer.threads.voluntary_switches), n), "count"},
      {"nserver.queue_wait_us_mean", stage_mean(Stage::kQueueWait), "us"},
      {"nserver.decode_us_mean", stage_mean(Stage::kDecode), "us"},
      {"nserver.handle_us_mean", stage_mean(Stage::kHandle), "us"},
      {"nserver.encode_us_mean", stage_mean(Stage::kEncode), "us"},
      {"nserver.write_us_mean", stage_mean(Stage::kWrite), "us"},
      {"nserver.total_us_mean", stage_mean(Stage::kTotal), "us"},
      {"nserver.cache_hit_rate",
       per(static_cast<double>(layer.cache_hits),
           layer.cache_hits + layer.cache_misses),
       "ratio"},
      {"nserver.cache_evictions_per_req",
       per(static_cast<double>(layer.cache_evictions), n), "count"},
      {"nserver.bytes_copied_per_req", per(static_cast<double>(layer.copied), n),
       "B"},
      {"nserver.writev_calls_per_req",
       per(static_cast<double>(layer.writevs), n), "count"},
      {"nserver.sendfile_bytes_per_req",
       per(static_cast<double>(layer.sendfile), n), "B"},
      {"nserver.pool_miss_ratio",
       per(static_cast<double>(layer.pool_misses),
           layer.pool_hits + layer.pool_misses),
       "ratio"},
      {"http.decode_ns_p50", median(decode_ns), "ns"},
      {"http.handle_ns_p50", median(handle_ns), "ns"},
      {"http.encode_reply_ns_p50", median(encode_ns), "ns"},
      {"http.decode_calls_per_req",
       per(static_cast<double>(layer.decode_calls), layer.decoded), "count"},
      {"alloc.count_per_req", per(static_cast<double>(layer.alloc_count), n),
       "count"},
      {"alloc.bytes_per_req", per(static_cast<double>(layer.alloc_bytes), n),
       "B"},
      {"proxy.reactor_cpu_us_per_req", per(layer.threads.proxy_cpu_ns / 1e3, n),
       "us"},
      {"proxy.pool_reuse_ratio",
       per(static_cast<double>(layer.proxy_reuse),
           layer.proxy_reuse + layer.proxy_miss),
       "ratio"},
      {"proxy.upstream_connects_per_req",
       per(static_cast<double>(layer.proxy_miss), n), "count"},
      {"baseline.throughput_rps", base_rps, "req/s"},
      {"trace.overhead_pct",
       100.0 * (median(traced_cpu) / median(plain_cpu) - 1.0), "%"},
      {"trace.framework_self_us_p50", median(self_us), "us"},
  };

  std::printf("# workload %s seed %llu (traced): %d rounds of plain closed, "
              "traced closed and traced open slices of %.2f s\n",
              w.name, static_cast<unsigned long long>(args.seed), rounds,
              kSliceSeconds);
  std::printf("# fingerprint %s\n", fp.c_str());
  std::printf("# host steal during measurement: %s of CPU time\n",
              steal_share(ticks0, ticks1).c_str());
  std::printf("# spans: %zu client, %zu hook, %zu client spans without hook "
              "spans; written to %s/trace-%s.csv\n",
              client_spans.size(), hook_spans.size(), unlinked,
              args.data.c_str(), w.name);
  std::printf("# syscall counts cover read/readv/write/writev/sendfile, not "
              "recv/send/recvmsg/sendmsg\n");
  std::printf("# error_rate %.6f (%llu failed of %llu attempted)%s%s\n",
              per(static_cast<double>(totals.failed), totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted),
              totals.first_failure.empty() ? "" : "; first failure: ",
              totals.first_failure.c_str());
  std::printf("# reconciliation %s\n",
              mismatch.empty() ? "ok" : mismatch.c_str());
  const bool correct = totals.failed == 0 && mismatch.empty() &&
                       unlinked == 0 && !traced_overflow && base_rps > 0 &&
                       !latency.empty();
  emit(totals, correct, metrics);
  return 0;
}

// ---- self-test ---------------------------------------------------------------

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest FAILED: %s\n", what);
  return ok;
}

bool selftest() {
  bool ok = true;
  // Percentiles against an exact sort.
  std::mt19937_64 rng(99);
  for (size_t n : {1, 2, 3, 10, 99, 100, 1000, 4097}) {
    std::vector<double> v(n);
    for (auto& x : v) x = static_cast<double>(rng() % 500);  // with ties
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<double> copy = v;
      ok &= expect(quantile(copy, q) == sorted[nearest_rank(q, n) - 1],
                   "quantile matches the exact sort");
    }
  }
  std::vector<double> ramp(1000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(1000 - i);
  ok &= expect(quantile(ramp, 0.5) == 500 && quantile(ramp, 0.99) == 990 &&
                   quantile(ramp, 0.999) == 999 && quantile(ramp, 1.0) == 1000,
               "nearest-rank known answers");
  ok &= expect(tail_quantile_level(999) == 0.9 &&
                   tail_quantile_level(1000) == 0.99 &&
                   tail_quantile_level(10000) == 0.999 &&
                   tail_quantile_level(100000) == 0.9999,
               "tail level keeps >=10 samples beyond it");

  // The verifier accepts a good reply and rejects damaged ones.
  const std::string body = "0123456789abcdef-the-body";
  const Expected want{body.size(), checksum(body.data(), body.size())};
  auto reply = [&](const std::string& status, const std::string& headers,
                   const std::string& b) {
    return "HTTP/1.1 " + status + "\r\nContent-Type: text/html\r\n" + headers +
           "\r\n" + b;
  };
  const std::string cl = "Content-Length: " + std::to_string(body.size()) +
                         "\r\n";
  const std::string good = reply("200 OK", cl, body);
  ok &= expect(verify_reply(good, want).verdict == Verdict::kOk,
               "verifier accepts a good reply");
  for (size_t cut = 0; cut < good.size(); ++cut) {
    ok &= expect(verify_reply(std::string_view(good).substr(0, cut), want)
                         .verdict != Verdict::kOk,
                 "verifier never accepts a truncated reply");
  }
  std::string corrupt = good;
  corrupt[corrupt.size() - 3] ^= 0x20;
  ok &= expect(verify_reply(corrupt, want).verdict == Verdict::kBad,
               "verifier rejects a corrupted body");
  const std::string shorter = body.substr(0, body.size() - 1);
  ok &= expect(verify_reply(reply("200 OK",
                                  "Content-Length: " +
                                      std::to_string(shorter.size()) + "\r\n",
                                  shorter),
                            want)
                       .verdict == Verdict::kBad,
               "verifier rejects a wrong Content-Length");
  ok &= expect(verify_reply(good + "X", want).verdict == Verdict::kBad,
               "verifier rejects bytes past the body");
  ok &= expect(verify_reply(reply("404 Not Found", cl, body), want).verdict ==
                   Verdict::kBad,
               "verifier rejects a non-200 status");
  ok &= expect(verify_reply(reply("200 OK", cl + cl, body), want).verdict ==
                   Verdict::kBad,
               "verifier rejects duplicate Content-Length");
  ok &= expect(verify_reply(reply("200 OK", "", body), want).verdict ==
                   Verdict::kBad,
               "verifier rejects a reply without Content-Length");
  return ok;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--data") {
        a.data = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.seconds <= 0) return std::nullopt;
  return a;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  signal(SIGPIPE, SIG_IGN);
  // 1 ns timer slack instead of the default 50 µs, so the generator's
  // wake-ups land within a microsecond or two of the open-loop schedule.
  // Set before any server starts: threads inherit it, so every tier of
  // every run sees the same value.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: cops_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data DIR] [--commit ID]\n");
    return 2;
  }
  if (!selftest()) return 3;
  const Workload* w = nullptr;
  for (const auto& k : kWorkloads) {
    if (args->workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const auto inputs = make_inputs(*w, *args);
  if (!inputs) {
    std::fprintf(stderr, "cannot prepare the file set under %s\n",
                 args->data.c_str());
    return 1;
  }
  return args->trace ? run_traced(*w, *args, *inputs)
                     : run_end_to_end(*w, *args, *inputs);
}
