// servebench: the serving benchmark. Stands up SnapshotRegistry →
// QueryService → QueryServer on loopback in this process, drives it from
// QueryClient connections with one seeded workload, checks every answer
// against an oracle, and prints each metric by name and unit, then one JSON
// line. README.md in this directory defines every metric.
//
//   servebench --workload point_lookup|mixed_analytic|live_churn --seed N
//              --seconds S --trace 0|1 --workdir DIR <rates and limits>
//
// The rates and limits (see Flags) are frozen in BENCHMARK.json's command;
// servebench/run.py builds this binary and passes them through.
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the untraced
// measurement, then measures again with an ObsRegistry attached and times
// the calls into each module from here, and reports the per-layer metrics;
// it also writes them, with per-layer self times, to
// DIR/.bench_build/servebench-trace-<workload>-<seed>.json.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/traversal.h"
#include "delta/compaction_scheduler.h"
#include "delta/compactor.h"
#include "delta/delta_overlay.h"
#include "engine/chain_planner.h"
#include "generators/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "stats.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace servebench {
namespace {

using mrpa::Status;
using mrpa::net::AnswerMode;
using mrpa::net::QueryClient;
using mrpa::net::WireRequest;
using mrpa::net::WireResponse;
using mrpa::obs::Hist;
using mrpa::obs::Metric;
using Clock = std::chrono::steady_clock;

// Set-ups per run; the median is reported. The large graph takes seconds
// to build, so it gets fewer repetitions.
size_t SetupReps(Workload w) { return w == Workload::kPointLookup ? 3 : 5; }
constexpr const char* kTenant = "bench";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

size_t Cores() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---------------------------------------------------------------- flags --

struct Flags {
  Workload workload = Workload::kPointLookup;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  // The fixed rates and limits, frozen in BENCHMARK.json's command:
  // point_lookup's rate ladder, its nominal step and its SLO (the p99 a
  // ladder step must meet); the latency limit of goodput for the lookup
  // mix (point_lookup, live_churn) and for mixed_analytic; live_churn's
  // read and write rates.
  std::vector<double> ladder;
  double nominal = 0;
  double slo_p99_ms = 0;
  double lookup_limit_ms = 0;
  double analytic_limit_ms = 0;
  double churn_qps = 0;
  double churn_writes = 0;
};

std::optional<std::vector<double>> ParseList(const std::string& s) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    char* end = nullptr;
    const std::string item = s.substr(pos, comma - pos);
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || *end != '\0' || !(v > 0)) return std::nullopt;
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

std::optional<Flags> ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    auto num = [&](double* out) {
      char* end = nullptr;
      *out = std::strtod(val.c_str(), &end);
      return *end == '\0' && *out > 0;
    };
    bool ok = true;
    if (key == "--workload") {
      const auto w = ParseWorkload(val);
      ok = w.has_value();
      if (ok) f.workload = *w, have_workload = true;
    } else if (key == "--seed") {
      char* end = nullptr;
      f.seed = std::strtoull(val.c_str(), &end, 10);
      ok = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      ok = num(&f.seconds);
    } else if (key == "--trace") {
      ok = val == "0" || val == "1";
      f.trace = val == "1";
    } else if (key == "--workdir") {
      f.workdir = val;
    } else if (key == "--ladder-qps") {
      const auto l = ParseList(val);
      ok = l.has_value() && std::is_sorted(l->begin(), l->end());
      if (ok) f.ladder = *l;
    } else if (key == "--nominal-qps") {
      ok = num(&f.nominal);
    } else if (key == "--slo-p99-ms") {
      ok = num(&f.slo_p99_ms);
    } else if (key == "--lookup-limit-ms") {
      ok = num(&f.lookup_limit_ms);
    } else if (key == "--analytic-limit-ms") {
      ok = num(&f.analytic_limit_ms);
    } else if (key == "--churn-qps") {
      ok = num(&f.churn_qps);
    } else if (key == "--churn-writes-per-s") {
      ok = num(&f.churn_writes);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "servebench: bad flag %s %s\n", key.c_str(),
                   val.c_str());
      return std::nullopt;
    }
  }
  const bool have_rates = f.slo_p99_ms > 0 && f.lookup_limit_ms > 0 &&
                          f.analytic_limit_ms > 0 &&
                          f.churn_qps > 0 && f.churn_writes > 0 &&
                          std::find(f.ladder.begin(), f.ladder.end(),
                                    f.nominal) != f.ladder.end();
  if (argc % 2 != 1 || !have_workload || !have_rates) {
    std::fprintf(stderr,
                 "usage: servebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] --ladder-qps R1,R2,... "
                 "--nominal-qps R --slo-p99-ms L --lookup-limit-ms L "
                 "--analytic-limit-ms L "
                 "--churn-qps R --churn-writes-per-s R\n"
                 "(the nominal rate must be one of the ladder's)\n");
    return std::nullopt;
  }
  return f;
}

// -------------------------------------------------------------- metrics --

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0;
};

class Report {
 public:
  void Add(std::string name, std::string unit, double value) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), std::move(unit), value});
  }

  void Print(std::string_view workload) const {
    for (const MetricValue& m : metrics_) {
      std::printf("%s %-28s %14.6f %s\n", std::string(workload).c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<MetricValue> metrics_;
};

// ------------------------------------------------------------ the stack --

// The serving stack under test, exactly as a server process composes it.
// `obs` is attached only in the traced run.
class Rig {
 public:
  explicit Rig(mrpa::obs::ObsRegistry* obs)
      : obs_(obs),
        registry_(obs),
        pool_(Cores()),
        service_(registry_, ServiceOptions(&pool_, obs)),
        server_(service_, ServerOptions(obs)) {}

  Status Start(mrpa::storage::SnapshotUniverse universe) {
    mrpa::service::TenantQuota quota;
    quota.max_in_flight = Cores();
    quota.max_queued = 64;
    Status st = service_.RegisterTenant(kTenant, quota);
    if (!st.ok()) return st;
    auto swapped = registry_.HotSwap(std::move(universe));
    if (!swapped.ok()) return swapped.status();
    return server_.Start();
  }

  mrpa::obs::ObsRegistry* obs() const { return obs_; }
  mrpa::service::SnapshotRegistry& registry() { return registry_; }
  mrpa::ThreadPool& pool() { return pool_; }
  mrpa::service::QueryService& service() { return service_; }
  uint16_t port() const { return server_.port(); }

 private:
  static mrpa::service::QueryService::Options ServiceOptions(
      mrpa::ThreadPool* pool, mrpa::obs::ObsRegistry* obs) {
    mrpa::service::QueryService::Options o;
    o.pool = pool;
    o.obs = obs;
    return o;
  }
  static mrpa::net::QueryServer::Options ServerOptions(
      mrpa::obs::ObsRegistry* obs) {
    mrpa::net::QueryServer::Options o;
    o.dispatch_threads = Cores();
    o.obs = obs;
    return o;
  }

  mrpa::obs::ObsRegistry* obs_;
  mrpa::service::SnapshotRegistry registry_;
  mrpa::ThreadPool pool_;
  mrpa::service::QueryService service_;
  mrpa::net::QueryServer server_;
};

// Set-up: generate the graph, serialize it, validate-load it, publish it
// and start the server, SetupReps() times; the medians are reported and the
// last rig serves the run.
struct Prepared {
  std::unique_ptr<Rig> rig;
  std::vector<uint8_t> image;  // A copy, kept only for the traced rig.
  uint32_t people = 0;
  uint32_t items = 0;
  size_t edges = 0;
  size_t base_likes = 0;
  double setup_s = 0;
  double serialize_ms = 0;
  double load_ms = 0;
  double image_bytes_per_edge = 0;
};

mrpa::Result<Prepared> Prepare(const Flags& f) {
  Prepared out;
  const mrpa::SocialNetworkParams params = GraphFor(f.workload, f.seed);
  out.people = params.num_people;
  out.items = params.num_items;
  std::vector<double> setup, serialize, load;
  const size_t reps = SetupReps(f.workload);
  for (size_t rep = 0; rep < reps; ++rep) {
    out.rig.reset();
    const int64_t t0 = NowNs();
    std::vector<uint8_t> bytes;
    {
      auto graph = mrpa::GenerateSocialNetwork(params);
      if (!graph.ok()) return graph.status();
      const int64_t ts = NowNs();
      auto ser = mrpa::storage::SnapshotWriter().Serialize(*graph);
      if (!ser.ok()) return ser.status();
      serialize.push_back(static_cast<double>(NowNs() - ts) * 1e-6);
      bytes = std::move(*ser);
      out.edges = graph->num_edges();
    }
    int64_t excluded = 0;
    if (rep + 1 == reps && f.trace) {
      const int64_t tc = NowNs();
      out.image = bytes;
      excluded = NowNs() - tc;
    }
    const size_t image_bytes = bytes.size();
    const int64_t tl = NowNs();
    auto universe = mrpa::storage::SnapshotReader().FromBuffer(std::move(bytes));
    if (!universe.ok()) return universe.status();
    load.push_back(static_cast<double>(NowNs() - tl) * 1e-6);
    out.base_likes = universe->LabelEdgeIndices(mrpa::kSocialLikes).size();
    out.rig = std::make_unique<Rig>(nullptr);
    Status st = out.rig->Start(std::move(*universe));
    if (!st.ok()) return st;
    setup.push_back(static_cast<double>(NowNs() - t0 - excluded) * 1e-9);
    out.image_bytes_per_edge =
        static_cast<double>(image_bytes) / static_cast<double>(out.edges);
  }
  out.setup_s = Quantile(setup, 0.5);
  out.serialize_ms = Quantile(serialize, 0.5);
  out.load_ms = Quantile(load, 0.5);
  return out;
}

// A second rig over the same image with an ObsRegistry attached.
mrpa::Result<std::unique_ptr<Rig>> TracedRig(const std::vector<uint8_t>& image,
                                             mrpa::obs::ObsRegistry* obs) {
  mrpa::storage::SnapshotLoadOptions load;
  load.obs = obs;
  auto universe = mrpa::storage::SnapshotReader(load).FromBuffer(image);
  if (!universe.ok()) return universe.status();
  auto rig = std::make_unique<Rig>(obs);
  Status st = rig->Start(std::move(*universe));
  if (!st.ok()) return st;
  return rig;
}

// ------------------------------------------------------------- requests --

enum class Outcome : uint8_t { kGood, kShed, kError, kMissed };

// Shared by every client thread of a run: the requests, their oracle
// digests, and the first mismatch (printed to stderr at the end).
struct Inputs {
  RequestSet requests;
  std::vector<Digest> oracle;
  std::mutex mu;
  std::string first_error;

  const WireRequest& At(size_t pos, uint32_t* distinct) const {
    *distinct = requests.sequence[pos % requests.sequence.size()];
    return requests.distinct[*distinct];
  }

  void NoteError(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.empty()) first_error = what;
  }

  Outcome Classify(const mrpa::Result<WireResponse>& r, uint32_t distinct) {
    if (!r.ok()) {
      NoteError("transport: " + r.status().ToString());
      return Outcome::kError;
    }
    if (!r->outcome.ok()) {
      NoteError("outcome: " + r->outcome.ToString());
      return Outcome::kError;
    }
    if (r->truncated) {
      if (r->snapshot_version == 0) return Outcome::kShed;
      NoteError("budget trip the oracle did not see: " + r->limit.ToString());
      return Outcome::kError;
    }
    if (!(DigestOf(*r) == oracle[distinct])) {
      NoteError("oracle mismatch on distinct request " +
                std::to_string(distinct));
      return Outcome::kError;
    }
    return Outcome::kGood;
  }
};

std::vector<std::unique_ptr<QueryClient>> Connect(uint16_t port, size_t n) {
  std::vector<std::unique_ptr<QueryClient>> clients;
  for (size_t i = 0; i < n; ++i) {
    QueryClient::Options o;
    o.retry_seed = 0xc11e4785ULL + i;
    clients.push_back(std::make_unique<QueryClient>("127.0.0.1", port, o));
    (void)clients.back()->Connect();
  }
  return clients;
}

// ----------------------------------------------------- load generators --

struct Sample {
  int64_t sched = 0;  // Open loop: when it was due. Closed loop: = send.
  int64_t send = 0;
  int64_t done = 0;
  int64_t gen_lag = 0;  // Sleep overshoot of a free generator thread.
  size_t pos = 0;       // Position in the request sequence.
  Outcome outcome = Outcome::kMissed;
};

// What one measured phase (an open-loop step or a closed-loop window) gives.
struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<Sample> samples;
  size_t good = 0, shed = 0, error = 0, missed = 0, within = 0;
  double p50_ms = 0, p99_ms = 0, gen_lag_p50_ms = 0, gen_lag_p99_ms = 0;
  bool backlog = false;

  size_t attempted() const { return samples.size(); }
  size_t completed() const { return good + shed + error; }
  double qps() const { return static_cast<double>(completed()) / wall_s; }
  double goodput() const { return static_cast<double>(within) / wall_s; }
};

// Latency of a sample from when it was due. Failed or missed requests count
// as missing any limit: they rank above every answered one, at the phase's
// whole wall time (at least 10x the limit). `p.wall_s` must be set.
void Summarize(Phase& p, double limit_ms) {
  const double fail_ms = std::max(10 * limit_ms, p.wall_s * 1e3);
  std::vector<double> lat, lag, late_last;
  const size_t n = p.samples.size();
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = p.samples[i];
    switch (s.outcome) {
      case Outcome::kGood: ++p.good; break;
      case Outcome::kShed: ++p.shed; break;
      case Outcome::kError: ++p.error; break;
      case Outcome::kMissed: ++p.missed; break;
    }
    if (s.outcome == Outcome::kMissed) {
      lat.push_back(fail_ms);
      continue;
    }
    const double ms = static_cast<double>(s.done - s.sched) * 1e-6;
    lat.push_back(s.outcome == Outcome::kGood ? ms : fail_ms);
    if (s.outcome == Outcome::kGood && ms <= limit_ms) ++p.within;
    lag.push_back(static_cast<double>(s.gen_lag) * 1e-6);
    const double late = static_cast<double>(s.send - s.sched) * 1e-6;
    if (i >= n - n / 4) late_last.push_back(late);
  }
  p.p99_ms = WindowedP99(lat);
  p.p50_ms = Quantile(lat, 0.5);
  p.gen_lag_p99_ms = Quantile(lag, 0.99);
  p.gen_lag_p50_ms = Quantile(lag, 0.5);
  // A backlog that grows through the step leaves its last quarter sending
  // late; a system that keeps up sends on time at the end as at the start.
  p.backlog = p.missed > 0 || Quantile(late_last, 0.5) > limit_ms / 2;
}

void LowTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// The host's timer wake-up lateness, p99 over 2000 sleeps of 250 us on an
// otherwise idle process: how much scheduling noise the host adds to every
// figure of the run (a shared VM swings from tens of us to ms).
double HostWakeP99Us() {
  std::vector<double> over;
  std::thread probe([&] {
    LowTimerSlack();
    for (int i = 0; i < 2000; ++i) {
      const int64_t due = NowNs() + 250'000;
      SleepUntilNs(due);
      over.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    }
  });
  probe.join();
  return Quantile(over, 0.99);
}

// Open loop: request k is due at t0 + k / rate, whatever the server does.
// Each connection sends the next due request as soon as it is free, so a
// stall delays later requests and their latency counts the wait.
Phase RunOpenLoop(std::vector<std::unique_ptr<QueryClient>>& clients,
                  Inputs& in, size_t seq_base, double rate, double seconds,
                  double limit_ms) {
  Phase p;
  const size_t k_total =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  p.samples.resize(k_total);
  const double period_ns = 1e9 / rate;
  std::atomic<size_t> next{0};
  const int64_t t0 = NowNs() + 1'000'000;
  // Requests not even sent a second past the schedule's end are missed.
  const int64_t give_up = t0 + static_cast<int64_t>(seconds * 1e9) +
                          1'000'000'000;
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      LowTimerSlack();
      for (;;) {
        const size_t k = next.fetch_add(1);
        if (k >= k_total) break;
        Sample& s = p.samples[k];
        s.pos = seq_base + k;
        s.sched = t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
        const int64_t pickup = NowNs();
        if (pickup > give_up) continue;  // kMissed.
        if (pickup < s.sched) SleepUntilNs(s.sched);
        s.send = NowNs();
        s.gen_lag = s.send - std::max(s.sched, pickup);
        uint32_t distinct = 0;
        const WireRequest& req = in.At(s.pos, &distinct);
        auto r = c->Execute(req);
        s.done = NowNs();
        s.outcome = in.Classify(r, distinct);
      }
    });
  }
  for (auto& t : threads) t.join();
  p.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  Summarize(p, limit_ms);
  return p;
}

// Closed loop: each connection sends its next request when the previous
// answer arrives, for `seconds` — and on, up to twice that, until the phase
// holds the samples its p99 needs (a slow host then lengthens the window
// instead of invalidating the run).
Phase RunClosedLoop(std::vector<std::unique_ptr<QueryClient>>& clients,
                    Inputs& in, double seconds, double limit_ms) {
  Phase p;
  std::atomic<size_t> next{0};
  std::mutex mu;
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
  const int64_t t_cap = t0 + static_cast<int64_t>(2 * seconds * 1e9);
  const size_t min_samples = MinSamplesFor(0.99);
  auto more = [&] {
    const int64_t now = NowNs();
    return now < t_end || (now < t_cap && next.load() < min_samples);
  };
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      std::vector<Sample> mine;
      while (more()) {
        Sample s;
        s.pos = next.fetch_add(1);
        uint32_t distinct = 0;
        const WireRequest& req = in.At(s.pos, &distinct);
        s.sched = s.send = NowNs();
        auto r = c->Execute(req);
        s.done = NowNs();
        s.outcome = in.Classify(r, distinct);
        mine.push_back(s);
      }
      std::lock_guard<std::mutex> lock(mu);
      p.samples.insert(p.samples.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : threads) t.join();
  p.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  std::sort(p.samples.begin(), p.samples.end(),
            [](const Sample& a, const Sample& b) { return a.pos < b.pos; });
  Summarize(p, limit_ms);
  return p;
}

// ---------------------------------------------------------- live churn --

struct ChurnResult {
  std::vector<double> add_us;
  std::vector<double> fresh_ms;
  size_t writes = 0, inserts = 0, tombstones = 0, errors = 0;
  size_t likes_expected = 0, likes_final = 0;
  uint64_t compactions = 0;
  size_t image_bytes = 0;
};

// Runs the writer, the freshness probe and the compaction scheduler beside
// `reads`, which drives the read traffic for the measured window.
template <typename Reads>
ChurnResult RunChurn(Rig& rig, const Flags& f, const Prepared& prep,
                     double seconds, uint64_t phase_seed, Reads reads) {
  ChurnResult out;
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(f.workdir) / ".bench_build" /
                       ("churn-" + std::to_string(getpid()) + "-" +
                        std::to_string(phase_seed));
  fs::create_directories(dir);

  std::vector<WriteOp> ops;
  std::vector<mrpa::Edge> probe_edges;
  {
    auto guard = rig.registry().Acquire();
    ops = MakeWriteOps(guard.universe(), f.seed ^ phase_seed,
                       static_cast<size_t>(f.churn_writes * (seconds + 2)),
                       prep.people, prep.items,
                       static_cast<size_t>(seconds * 100 + 100), &probe_edges);
  }

  mrpa::delta::DeltaOverlay overlay(rig.obs());
  mrpa::delta::CompactorOptions copts;
  copts.path = (dir / "image.mrgs").string();
  copts.obs = rig.obs();
  mrpa::delta::Compactor compactor(&rig.registry(), copts);
  mrpa::delta::CompactionScheduler::Options sopts;
  sopts.min_interval = std::chrono::milliseconds(50);
  sopts.min_delta_bytes = 1;
  sopts.poll_interval = std::chrono::milliseconds(5);
  mrpa::delta::CompactionScheduler scheduler(rig.registry(), overlay,
                                             compactor, sopts);
  std::atomic<bool> stop{false};
  std::atomic<size_t> inserts{0}, tombstones{0}, errors{0};
  if (!scheduler.Start().ok()) ++errors;
  // The writer: a fixed absolute rate of likes mutations, each timed.
  std::thread writer([&] {
    LowTimerSlack();
    const int64_t t0 = NowNs();
    const double period = 1e9 / f.churn_writes;
    for (size_t i = 0; i < ops.size() && !stop.load(); ++i) {
      SleepUntilNs(t0 + static_cast<int64_t>(static_cast<double>(i) * period));
      auto guard = rig.registry().Acquire();
      const int64_t a = NowNs();
      const Status st =
          ops[i].remove ? overlay.RemoveEdge(guard.universe(), ops[i].edge)
                        : overlay.AddEdge(guard.universe(), ops[i].edge);
      out.add_us.push_back(static_cast<double>(NowNs() - a) * 1e-3);
      if (!st.ok()) {
        ++errors;
      } else {
        ++(ops[i].remove ? tombstones : inserts);
      }
    }
  });
  // The probe: insert one fresh edge, then ask over the socket until an
  // exists query sees it.
  std::thread probe([&] {
    auto client = Connect(rig.port(), 1);
    for (size_t i = 0; i < probe_edges.size() && !stop.load(); ++i) {
      Status st;
      {
        auto guard = rig.registry().Acquire();
        st = overlay.AddEdge(guard.universe(), probe_edges[i]);
      }
      const int64_t acked = NowNs();
      if (!st.ok()) {
        ++errors;
        continue;
      }
      ++inserts;
      WireRequest req;
      req.tenant = kTenant;
      req.mode = AnswerMode::kExists;
      req.steps = {mrpa::EdgePattern::Exactly(probe_edges[i])};
      req.limits.max_paths = 16;  // A safety cap: the answer is one path.
      for (;;) {
        auto r = client[0]->Execute(req);
        if (!r.ok() || !r->outcome.ok()) {
          ++errors;
          break;
        }
        if (r->exists) {
          out.fresh_ms.push_back(static_cast<double>(NowNs() - acked) * 1e-6);
          break;
        }
        if (NowNs() - acked > 5'000'000'000) {  // Never became visible.
          ++errors;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  reads();
  stop = true;
  writer.join();
  probe.join();
  scheduler.Stop();
  out.compactions = scheduler.compactions();
  out.errors = errors.load() + scheduler.failures();
  out.inserts = inserts.load();
  out.tombstones = tombstones.load();
  out.writes = out.add_us.size();

  // Fold what is left, then check the final image's likes count.
  {
    auto guard = rig.registry().Acquire();
    auto final_compaction = compactor.Compact(guard.universe(), overlay);
    if (!final_compaction.ok()) ++out.errors;
  }
  compactor.ReclaimDrops(overlay);
  {
    auto guard = rig.registry().Acquire();
    out.likes_final =
        guard.universe().LabelEdgeIndices(mrpa::kSocialLikes).size();
    out.image_bytes = guard.universe().snapshot_bytes();
  }
  out.likes_expected = prep.base_likes + out.inserts - out.tombstones;
  if (out.likes_final != out.likes_expected) ++out.errors;
  // Images are mmap'ed; unlinking them keeps the live mapping valid.
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

// -------------------------------------------------------------- replay --

// Times the calls into each module for a sample of the traced phase's
// requests, one at a time on an otherwise idle stack.
struct Replay {
  std::vector<double> acquire_ns, execute_us, fold_us, fold_par_us, plan_ns,
      best_us, encode_us, decode_us, resp_bytes, overhead_us, service_self_us;
  double steps = 0, paths = 0;
  size_t backward = 0;
};

template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t a = NowNs();
  fn();
  return static_cast<double>(NowNs() - a) * 1e-3;
}

Replay RunReplay(Rig& rig, Inputs& in, const std::vector<Sample>& online,
                 size_t max_n, double max_seconds) {
  Replay out;
  const int64_t t_end = NowNs() + static_cast<int64_t>(max_seconds * 1e9);
  for (size_t i = 0; i < online.size() && i < max_n && NowNs() < t_end; ++i) {
    const Sample& s = online[i];
    if (s.outcome != Outcome::kGood) continue;
    uint32_t distinct = 0;
    const WireRequest& w = in.At(s.pos, &distinct);
    mrpa::service::QueryRequest q;
    q.steps = w.steps;
    q.limits = w.limits;

    {
      const int64_t a = NowNs();
      auto guard = rig.registry().Acquire();
      out.acquire_ns.push_back(static_cast<double>(NowNs() - a));
    }
    mrpa::Result<mrpa::service::QueryResponse> resp =
        Status::Internal("not run");
    const double exec_us =
        TimeUs([&] { resp = rig.service().Execute(kTenant, q); });
    if (!resp.ok()) continue;
    out.execute_us.push_back(exec_us);

    auto guard = rig.registry().Acquire();
    const mrpa::EdgeUniverse& u = guard.universe();
    mrpa::TraversalSpec spec;
    spec.steps = w.steps;
    double fold_par = 0;
    {
      mrpa::ExecContext ctx(w.limits);
      mrpa::ParallelTraversalOptions par;
      par.pool = &rig.pool();
      fold_par = TimeUs([&] {
        (void)mrpa::TraverseParallelGoverned(u, spec, ctx, par);
      });
      out.fold_par_us.push_back(fold_par);
    }
    {
      mrpa::ExecContext ctx(w.limits);
      mrpa::Result<mrpa::GovernedPathSet> r = Status::Internal("not run");
      out.fold_us.push_back(
          TimeUs([&] { r = mrpa::TraverseGoverned(u, spec, ctx); }));
      if (r.ok()) {
        out.steps += static_cast<double>(r->stats.steps_expanded);
        out.paths += static_cast<double>(r->paths.size());
      }
    }
    {
      constexpr int kPlanReps = 64;
      mrpa::ChainPlan plan;
      const int64_t a = NowNs();
      for (int k = 0; k < kPlanReps; ++k) plan = mrpa::PlanChain(u, w.steps);
      out.plan_ns.push_back(static_cast<double>(NowNs() - a) / kPlanReps);
      if (plan.direction == mrpa::ChainDirection::kBackward) ++out.backward;
    }
    {
      double best = 0;
      for (auto dir : {mrpa::ChainDirection::kForward,
                       mrpa::ChainDirection::kBackward}) {
        mrpa::ExecContext ctx(w.limits);
        const double t = TimeUs([&] {
          (void)mrpa::EvaluateChainGoverned(u, w.steps, dir, ctx);
        });
        best = dir == mrpa::ChainDirection::kForward ? t : std::min(best, t);
      }
      out.best_us.push_back(best);
    }
    {
      mrpa::Result<std::vector<uint8_t>> req_frame = Status::Internal("");
      mrpa::Result<std::vector<uint8_t>> resp_frame = Status::Internal("");
      out.encode_us.push_back(TimeUs([&] {
        req_frame = mrpa::net::EncodeRequestFrame(w);
        resp_frame = mrpa::net::EncodeResponseFrame(
            mrpa::net::MakeWireResponse(*resp, w.mode));
      }));
      if (!req_frame.ok() || !resp_frame.ok()) continue;
      out.resp_bytes.push_back(static_cast<double>(resp_frame->size()));
      auto payload = [](const std::vector<uint8_t>& frame) {
        const auto x = mrpa::net::ExtractFrame(frame);
        return std::span<const uint8_t>(frame).subspan(
            mrpa::net::kFrameHeaderBytes,
            x.frame_bytes - mrpa::net::kFrameHeaderBytes);
      };
      out.decode_us.push_back(TimeUs([&] {
        (void)mrpa::net::DecodeRequestPayload(payload(*req_frame));
        (void)mrpa::net::DecodeResponsePayload(payload(*resp_frame));
      }));
    }
    const double rtt_us = static_cast<double>(s.done - s.send) * 1e-3;
    // Self times, nested by construction: the round trip contains the
    // service call, which contains the (pool) fold it runs. The net self
    // time is the round trip's overhead over the service call.
    out.overhead_us.push_back(rtt_us - exec_us);
    out.service_self_us.push_back(exec_us - fold_par);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }
double P99(std::vector<double> v) { return Quantile(v, 0.99); }

// --------------------------------------------------------- the workloads --

// The untraced measurement of a workload: end-to-end metrics plus the
// workload-specific figures the traced run reports beside the layers.
struct Measured {
  Phase headline;  // The phase p50/p99/goodput/qps/cpu come from.
  double slo_qps = 0;
  std::vector<double> fresh_ms, add_us;
  size_t attempted = 0, failed = 0, errors = 0, shed = 0;
  bool valid = true;
  std::string invalid_reason;
  double host_wake_us_p99 = 0;  // Measured in traced runs only.
};

// Adds a phase's requests to the run's counts. Requests the generator could
// not even send in time count as failed, except on ladder steps above the
// nominal rate, where overload is what the SLO search probes for.
void Account(Measured& m, const Phase& p, bool overload_probe = false) {
  const size_t missed = overload_probe ? 0 : p.missed;
  m.attempted += p.attempted();
  m.failed += p.shed + p.error + missed;
  m.errors += p.error + missed;
  m.shed += p.shed;
}

// The generator must keep its schedule, or the latencies it reports are
// its own: a headline phase whose typical (median) send went out more than
// a quarter of the latency limit late on a free connection invalidates the
// run, as does a headline phase too small to support its p99. (The p99 of
// that lateness is host wake-up noise on a shared VM; it is reported as
// harness.gen_lag_ms.p99, not judged.)
void CheckValidity(Measured& m, double limit_ms) {
  if (m.headline.gen_lag_p50_ms > limit_ms / 4) {
    m.valid = false;
    m.invalid_reason = "generator fell behind its schedule";
  }
  if (!TailSupported(m.headline.attempted(), 0.99)) {
    m.valid = false;
    m.invalid_reason = "fewer samples than p99 needs";
  }
}

// The point_lookup ladder: each rate with its duration. The nominal step
// gets 40% of the run, the others share the rest, and every step is long
// enough to support its p99.
std::vector<std::pair<double, double>> LadderPlan(const Flags& f) {
  constexpr double kNominalShare = 0.4;
  const double other =
      f.seconds * (1 - kNominalShare) /
      static_cast<double>(std::max<size_t>(1, f.ladder.size() - 1));
  std::vector<std::pair<double, double>> plan;
  for (double rate : f.ladder) {
    const double secs = rate == f.nominal ? f.seconds * kNominalShare : other;
    plan.emplace_back(
        rate, std::max(secs, 1.05 * static_cast<double>(MinSamplesFor(0.99)) /
                                 rate));
  }
  return plan;
}

constexpr double kWarmupSeconds = 0.5;

// Requests a run can send: the ladder or the fixed-rate window, its warm-up
// and the traced repeat. (Closed loop wraps its sequence if it outruns it.)
size_t RequestCount(const Flags& f) {
  switch (f.workload) {
    case Workload::kPointLookup: {
      double n = f.nominal * (2 * kWarmupSeconds + f.seconds);
      for (const auto& [rate, secs] : LadderPlan(f)) n += rate * secs;
      return static_cast<size_t>(n) + 1;
    }
    case Workload::kLiveChurn:
      return static_cast<size_t>(f.churn_qps * (f.seconds + 2)) + 1;
    case Workload::kMixedAnalytic:
      break;
  }
  return 20000;
}

Measured MeasurePointLookup(Rig& rig, Inputs& in, const Flags& f) {
  Measured m;
  auto clients = Connect(rig.port(), std::min<size_t>(4, Cores()));
  // Warm the connections, caches and lazily built state; discarded except
  // for errors.
  Phase warm = RunOpenLoop(clients, in, 0, f.nominal, kWarmupSeconds,
                           f.lookup_limit_ms);
  Account(m, warm);
  size_t base = warm.attempted();
  std::vector<LadderStep> ladder;
  bool failed_above = false;
  for (const auto& [rate, secs] : LadderPlan(f)) {
    LadderStep step;
    step.rate = rate;
    if (failed_above) {
      ladder.push_back(step);
      continue;
    }
    Phase p = RunOpenLoop(clients, in, base, rate, secs, f.lookup_limit_ms);
    base += p.attempted();
    step.ran = true;
    step.p99_ms = p.p99_ms;
    step.backlog = p.backlog;
    step.errors = p.error + p.shed + p.missed;
    std::printf("point_lookup step %8.0f qps: p50 %.4f ms p99 %.4f ms "
                "lateness-growing %d errors %zu sheds %zu gen_lag_p99 %.4f ms "
                "samples %zu\n",
                rate, p.p50_ms, p.p99_ms, p.backlog ? 1 : 0, p.error + p.missed,
                p.shed, p.gen_lag_p99_ms, p.attempted());
    const bool pass = !p.backlog && step.errors == 0 &&
                      p.p99_ms <= f.slo_p99_ms;
    if (rate > f.nominal && !pass) failed_above = true;
    Account(m, p, rate > f.nominal);
    if (rate == f.nominal) m.headline = std::move(p);
    ladder.push_back(step);
  }
  m.slo_qps = SelectSloRate(ladder, f.slo_p99_ms);
  CheckValidity(m, f.lookup_limit_ms);
  return m;
}

Measured MeasureMixedAnalytic(Rig& rig, Inputs& in, const Flags& f,
                              double seconds) {
  Measured m;
  auto clients = Connect(rig.port(), std::min<size_t>(2, Cores()));
  m.headline = RunClosedLoop(clients, in, seconds, f.analytic_limit_ms);
  Account(m, m.headline);
  if (!TailSupported(m.headline.attempted(), 0.99)) {
    m.valid = false;
    m.invalid_reason = "fewer samples than p99 needs";
  }
  return m;
}

Measured MeasureLiveChurn(Rig& rig, Inputs& in, const Flags& f,
                          const Prepared& prep, double seconds,
                          uint64_t phase_seed, ChurnResult* churn_out) {
  Measured m;
  auto clients = Connect(rig.port(), std::min<size_t>(2, Cores()));
  ChurnResult churn = RunChurn(rig, f, prep, seconds, phase_seed, [&] {
    Phase warm = RunOpenLoop(clients, in, 0, f.churn_qps, kWarmupSeconds,
                             f.lookup_limit_ms);
    Account(m, warm);
    m.headline = RunOpenLoop(clients, in, warm.attempted(), f.churn_qps,
                             seconds, f.lookup_limit_ms);
  });
  Account(m, m.headline);
  m.errors += churn.errors;
  m.failed += churn.errors;
  m.fresh_ms = churn.fresh_ms;
  m.add_us = churn.add_us;
  CheckValidity(m, f.lookup_limit_ms);
  std::printf("live_churn writes %zu inserts %zu tombstones %zu compactions "
              "%llu likes final %zu expected %zu\n",
              churn.writes, churn.inserts, churn.tombstones,
              static_cast<unsigned long long>(churn.compactions),
              churn.likes_final, churn.likes_expected);
  if (churn_out != nullptr) *churn_out = std::move(churn);
  return m;
}

Measured Measure(Rig& rig, Inputs& in, const Flags& f, const Prepared& prep,
                 uint64_t phase_seed, ChurnResult* churn) {
  switch (f.workload) {
    case Workload::kPointLookup:
      return MeasurePointLookup(rig, in, f);
    case Workload::kMixedAnalytic:
      return MeasureMixedAnalytic(rig, in, f, f.seconds);
    case Workload::kLiveChurn:
      return MeasureLiveChurn(rig, in, f, prep, f.seconds, phase_seed, churn);
  }
  return {};
}

// The traced phase: the headline phase again, with the registry attached.
Measured MeasureTraced(Rig& rig, Inputs& in, const Flags& f,
                       const Prepared& prep, ChurnResult* churn) {
  const double seconds = std::max(2.0, f.seconds / 2);
  switch (f.workload) {
    case Workload::kPointLookup: {
      Measured m;
      auto clients = Connect(rig.port(), std::min<size_t>(4, Cores()));
      Account(m, RunOpenLoop(clients, in, 0, f.nominal, kWarmupSeconds,
                             f.lookup_limit_ms));
      m.headline = RunOpenLoop(clients, in, 0, f.nominal, seconds,
                               f.lookup_limit_ms);
      Account(m, m.headline);
      return m;
    }
    case Workload::kMixedAnalytic:
      return MeasureMixedAnalytic(rig, in, f, seconds);
    case Workload::kLiveChurn:
      return MeasureLiveChurn(rig, in, f, prep, seconds, 2, churn);
  }
  return {};
}

void AddEndToEnd(Report& r, const Measured& m, const Prepared& prep) {
  const Phase& h = m.headline;
  r.Add("setup_s", "s", prep.setup_s);
  r.Add("goodput_qps", "1/s", h.goodput());
  r.Add("qps", "1/s", h.qps());
  r.Add("cpu_us_per_q", "us",
        h.cpu_s * 1e6 / static_cast<double>(std::max<size_t>(1, h.completed())));
  r.Add("peak_rss_mb", "MB", PeakRssMb());
}

// The end-to-end figures outside the benchmark's gated end-to-end set, which
// holds only metrics every workload defines, never 0, and that repeat within
// their bounds on the reference host (README: host noise):
//   p50_ms and p99_ms, which swing with the host's wake-up latency;
//   slo_qps (point_lookup), fresh_ms and write_p99_us (live_churn);
//   the shed and error shares, which are 0 on a healthy run.
// They travel with the per-layer set; an untraced run prints them too.
void AddWorkloadFigures(Report& r, const Measured& untraced) {
  const double attempted =
      static_cast<double>(std::max<size_t>(1, untraced.attempted));
  r.Add("p50_ms", "ms", untraced.headline.p50_ms);
  r.Add("p99_ms", "ms", untraced.headline.p99_ms);
  r.Add("slo_qps", "1/s", untraced.slo_qps);
  r.Add("fresh_ms", "ms", Median(untraced.fresh_ms));
  r.Add("write_p99_us", "us", P99(untraced.add_us));
  r.Add("shed_frac", "ratio", static_cast<double>(untraced.shed) / attempted);
  r.Add("error_frac", "ratio",
        static_cast<double>(untraced.errors) / attempted);
}

// The registry's figures for the traced phase, read before the replay adds
// its own service calls to the same sink.
struct RegistryFigures {
  std::vector<uint64_t> counters;
  std::vector<mrpa::obs::HistogramSnapshot> hists;

  explicit RegistryFigures(const mrpa::obs::ObsRegistry& o) {
    for (size_t i = 0; i < static_cast<size_t>(Metric::kCount); ++i) {
      counters.push_back(o.Value(static_cast<Metric>(i)));
    }
    for (size_t i = 0; i < static_cast<size_t>(Hist::kCount); ++i) {
      hists.push_back(o.SnapshotHistogram(static_cast<Hist>(i)));
    }
  }
  double Value(Metric m) const {
    return static_cast<double>(counters[static_cast<size_t>(m)]);
  }
  const mrpa::obs::HistogramSnapshot& Of(Hist h) const {
    return hists[static_cast<size_t>(h)];
  }
};

void AddPerLayer(Report& r, const Flags& f, const Prepared& prep,
                 const Measured& untraced, const Measured& traced,
                 const RegistryFigures& o, const Replay& rp,
                 const ChurnResult& churn) {
  const Phase& th = traced.headline;
  std::vector<double> rtt;
  for (const Sample& s : th.samples) {
    if (s.outcome == Outcome::kGood) {
      rtt.push_back(static_cast<double>(s.done - s.send) * 1e-3);
    }
  }
  // net
  r.Add("net.rtt_us.p50", "us", Median(rtt));
  r.Add("net.rtt_us.p99", "us", P99(rtt));
  r.Add("net.overhead_us.p50", "us", Median(rp.overhead_us));
  r.Add("net.encode_us", "us", Median(rp.encode_us));
  r.Add("net.decode_us", "us", Median(rp.decode_us));
  r.Add("net.resp_bytes.mean", "bytes",
        Sum(rp.resp_bytes) / static_cast<double>(
                                 std::max<size_t>(1, rp.resp_bytes.size())));
  r.Add("net.request_us.p99", "us",
        HistQuantile(o.Of(Hist::kNetRequestNanos), 0.99) * 1e-3);
  r.Add("net.backpressure_pauses", "count",
        (o.Value(Metric::kNetBackpressurePauses)));
  r.Add("net.protocol_errors", "count",
        (o.Value(Metric::kNetProtocolErrors)));
  // service
  r.Add("service.execute_us.p50", "us", Median(rp.execute_us));
  r.Add("service.execute_us.p99", "us", P99(rp.execute_us));
  r.Add("service.self_us.p50", "us", Median(rp.service_self_us));
  r.Add("service.acquire_ns.p50", "ns", Median(rp.acquire_ns));
  r.Add("service.admit_wait_us.p99", "us",
        HistQuantile(o.Of(Hist::kServiceAdmitWaitNanos), 0.99) * 1e-3);
  r.Add("service.queue_depth.max", "count",
        static_cast<double>(o.Of(Hist::kServiceQueueDepth).max));
  r.Add("service.shed", "count",
        (o.Value(Metric::kServiceShed)));
  r.Add("service.retries", "count",
        (o.Value(Metric::kServiceRetries)));
  r.Add("service.hot_swaps", "count",
        (o.Value(Metric::kServiceHotSwaps)));
  r.Add("service.epoch_lag.max", "count",
        static_cast<double>(o.Of(Hist::kServiceEpochLag).max));
  // core
  r.Add("core.fold_us.p50", "us", Median(rp.fold_us));
  r.Add("core.fold_us.sum", "us", Sum(rp.fold_us));
  r.Add("core.fold_parallel_us.p50", "us", Median(rp.fold_par_us));
  r.Add("core.fold_parallel_us.sum", "us", Sum(rp.fold_par_us));
  r.Add("core.steps_per_path", "ratio",
        rp.paths > 0 ? rp.steps / rp.paths : 0);
  r.Add("core.arena_nodes", "count",
        (o.Value(Metric::kArenaNodesAllocated)));
  // engine
  r.Add("engine.plan_ns.p50", "ns", Median(rp.plan_ns));
  r.Add("engine.best_fold_us.sum", "us", Sum(rp.best_us));
  r.Add("engine.backward_share", "ratio",
        static_cast<double>(rp.backward) /
            static_cast<double>(std::max<size_t>(1, rp.plan_ns.size())));
  // frontier
  r.Add("frontier.dense_levels", "count",
        (o.Value(Metric::kFrontierDenseLevels)));
  r.Add("frontier.sparse_levels", "count",
        (o.Value(Metric::kFrontierSparseLevels)));
  r.Add("frontier.words_scanned", "count",
        (o.Value(Metric::kFrontierWordsScanned)));
  // storage
  r.Add("storage.serialize_ms", "ms", prep.serialize_ms);
  r.Add("storage.load_ms", "ms", prep.load_ms);
  r.Add("storage.image_bytes_per_edge", "bytes", prep.image_bytes_per_edge);
  // delta (live_churn only; zero elsewhere)
  const auto compact = o.Of(Hist::kDeltaCompactNanos);
  r.Add("delta.add_us.p50", "us", Median(churn.add_us));
  r.Add("delta.add_us.p99", "us", P99(churn.add_us));
  r.Add("delta.compact_ms.p50", "ms", HistQuantile(compact, 0.5) * 1e-6);
  r.Add("delta.compact_ms.max", "ms", static_cast<double>(compact.max) * 1e-6);
  r.Add("delta.compactions", "count",
        (o.Value(Metric::kDeltaCompactions)));
  r.Add("delta.generations_sealed", "count",
        (o.Value(Metric::kDeltaGenerationsSealed)));
  const double mutation_bytes = static_cast<double>(
      (churn.writes + churn.fresh_ms.size()) * sizeof(mrpa::delta::DeltaEntry));
  r.Add("delta.rewrite_amp", "ratio",
        mutation_bytes > 0
            ? (o.Value(Metric::kDeltaCompactions)) *
                  static_cast<double>(churn.image_bytes) / mutation_bytes
            : 0);
  // obs: tracing cost, traced against untraced headline.
  double overhead = 0;
  if (f.workload == Workload::kMixedAnalytic) {
    overhead = (untraced.headline.qps() - th.qps()) / untraced.headline.qps();
  } else {
    overhead = (th.p50_ms - untraced.headline.p50_ms) / untraced.headline.p50_ms;
  }
  r.Add("obs.trace_overhead_pct", "%", overhead * 100);
  // harness
  r.Add("harness.gen_lag_ms.p99", "ms", untraced.headline.gen_lag_p99_ms);
  r.Add("harness.samples", "count",
        static_cast<double>(untraced.headline.attempted()));
  r.Add("harness.host_wake_us.p99", "us", untraced.host_wake_us_p99);
  AddWorkloadFigures(r, untraced);
}

// Per-layer self times and every per-layer metric, for offline reading.
void WriteTraceFile(const Flags& f, const Report& r, const Replay& rp) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(f.workdir) / ".bench_build" /
                        ("servebench-trace-" +
                         std::string(WorkloadName(f.workload)) + "-" +
                         std::to_string(f.seed) + ".json");
  std::ofstream out(path);
  out << "{\"workload\": \"" << WorkloadName(f.workload)
      << "\", \"seed\": " << f.seed << ", \"replayed\": "
      << rp.execute_us.size() << ",\n \"self_us\": {\"net\": {\"p50\": "
      << Median(rp.overhead_us) << ", \"sum\": " << Sum(rp.overhead_us)
      << "}, \"service\": {\"p50\": " << Median(rp.service_self_us)
      << ", \"sum\": " << Sum(rp.service_self_us)
      << "}, \"core\": {\"p50\": " << Median(rp.fold_par_us)
      << ", \"sum\": " << Sum(rp.fold_par_us) << "}},\n \"metrics\": "
      << r.Json() << "}\n";
}

int Run(const Flags& f) {
  auto prep = Prepare(f);
  if (!prep.ok()) {
    std::fprintf(stderr, "servebench: set-up failed: %s\n",
                 prep.status().ToString().c_str());
    return 1;
  }
  Inputs in;
  {
    in.requests = MakeRequests(f.workload, f.seed, RequestCount(f),
                               prep->people, prep->items);
    auto guard = prep->rig->registry().Acquire();
    auto oracle = ComputeOracle(guard.universe(), in.requests.distinct);
    if (!oracle.ok()) {
      std::fprintf(stderr, "servebench: %s\n",
                   oracle.status().ToString().c_str());
      return 1;
    }
    in.oracle = std::move(*oracle);
  }

  // Traced runs first sample the host's wake-up noise (README: host noise).
  const double host_wake_us_p99 = f.trace ? HostWakeP99Us() : 0;
  Measured m = Measure(*prep->rig, in, f, *prep, 1, nullptr);
  m.host_wake_us_p99 = host_wake_us_p99;
  Report report;
  size_t attempted = m.attempted, failed = m.failed, errors = m.errors;
  bool valid = m.valid;
  std::string why = m.invalid_reason;
  if (!f.trace) {
    AddEndToEnd(report, m, *prep);
    Report figures;
    AddWorkloadFigures(figures, m);
    figures.Print(WorkloadName(f.workload));
  } else {
    prep->rig.reset();
    mrpa::obs::ObsRegistry obs;
    auto rig = TracedRig(prep->image, &obs);
    if (!rig.ok()) {
      std::fprintf(stderr, "servebench: traced rig: %s\n",
                   rig.status().ToString().c_str());
      return 1;
    }
    ChurnResult churn;
    Measured t = MeasureTraced(**rig, in, f, *prep, &churn);
    attempted += t.attempted;
    failed += t.failed;
    errors += t.errors;
    const RegistryFigures figures(obs);
    const Replay rp =
        RunReplay(**rig, in, t.headline.samples,
                  f.workload == Workload::kMixedAnalytic ? 200 : 2000, 4.0);
    AddPerLayer(report, f, *prep, m, t, figures, rp, churn);
    WriteTraceFile(f, report, rp);
  }
  const std::string_view name = WorkloadName(f.workload);
  report.Print(name);
  if (!valid) std::printf("%s run invalid: %s\n", std::string(name).c_str(),
                          why.c_str());
  if (!in.first_error.empty()) {
    std::fprintf(stderr, "servebench: first error: %s\n",
                 in.first_error.c_str());
  }
  const bool correct = errors == 0 && valid;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              report.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const auto flags = servebench::ParseFlags(argc, argv);
  if (!flags.has_value()) return 2;
  return servebench::Run(*flags);
}
