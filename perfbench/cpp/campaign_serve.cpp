// campaign_serve: the write path (campaign sweep with verified checkpoints,
// in-situ catalogs and the journal) and the read path (a QueryServer under
// open-loop load over those catalogs plus one larger halo catalog).
//
// Untraced: a discarded warm-up sweep, then at least four timed sweeps,
// until half of --seconds has passed, each followed by set-up samples
// (orchestrator construction plus catalog open); a larger halo catalog goes
// through the in-situ writer; after a discarded warm-up window, the
// reference rate is offered for 30% of --seconds. Every answer is compared
// with a direct gio read of the catalog.
//
// Traced: the same, plus the layer probes of a campaign-sized simulation,
// single-threaded store queries on a warm and a cold cache, a journal append
// probe and the whole rate ladder.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "gio/gio.h"
#include "serve/catalog_store.h"
#include "serve/insitu.h"
#include "serve/query_server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace hacc;
namespace fs = std::filesystem;

constexpr int kRuns = 6;         ///< runs per sweep
constexpr int kWidth = 2;        ///< ranks per run
constexpr int kFleet = 4;        ///< rank pool
constexpr int kConcurrent = 2;   ///< runs at once
constexpr int kInsituCadence = 2;
/// Set-up takes ~0.1 ms, so it is sampled many times and the median taken.
constexpr int kSetupSamplesPerSweep = 50;

/// The larger halo catalog: clusters on a jittered lattice (centres at least
/// two cells apart, far beyond the linking length) with member counts that
/// follow a fixed pattern, so its halo count and mass function are the same
/// for every seed and are stored in perfbench/reference.json.
constexpr int kBigStep = 1000;
constexpr int kLattice = 12;
constexpr double kCell = 4.0;
constexpr double kSpread = 0.02;  ///< member scatter (grid units)
const std::vector<double> kMassEdges = {8, 16, 24, 32, 40, 48};

std::size_t cluster_members(int i) { return 8 + static_cast<std::size_t>((i * 37) % 41); }

// ---- open-loop serving ------------------------------------------------------

/// The fixed rate ladder (queries per second) and its reference rate.
const std::vector<double> kLadder = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr double kReferenceRate = 2000;
/// p99 latency limit for the ladder (also recorded in BENCHMARK.json). It
/// sits above the 10-20 ms scheduling stalls a shared virtual host imposes
/// on any thread, so a rung fails when the server saturates, not when a
/// neighbour runs.
constexpr double kP99LimitS = 25e-3;
constexpr double kDrainTimeoutS = 20;

struct Expected {
  std::map<std::uint64_t, serve::CatalogStore::HaloRecord> halos;
  std::vector<serve::CatalogStore::SpectrumPoint> spectrum;
  std::vector<serve::CatalogStore::SliceParticle> slice;
};

struct Rung {
  double rate = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  ///< refused, wrong or unanswered
  std::string first_failure;  ///< what the first failed query was
  std::vector<double> latency;  ///< due time to completion, seconds
  std::vector<double> late;     ///< submit time minus due time, seconds
  std::size_t backlog_max = 0;
  bool backlog_grew = false;
  serve::CacheStats cache_before, cache_after;
  bool passes() const {
    return failed == 0 && !backlog_grew && quantile(latency, 0.99) <= kP99LimitS;
  }
};

/// The request mix from the seed: 80% halo-by-id (90% of those from a hot
/// set of 32 halos, the rest uniform), 10% spectrum windows, 10% regions of
/// the slice.
std::vector<serve::Query> make_queries(std::size_t n, Rng& rng,
                                       const Expected& ex,
                                       const std::vector<std::uint64_t>& hot,
                                       int slice_step, int grid,
                                       double slice_thickness) {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, rec] : ex.halos) ids.push_back(id);
  std::vector<serve::Query> out(n);
  for (auto& q : out) {
    const double u = rng.uniform();
    if (u < 0.8) {
      q.type = serve::QueryType::kHaloById;
      q.step = kBigStep;
      q.halo_id = rng.uniform() < 0.9 ? hot[rng.below(hot.size())]
                                      : ids[rng.below(ids.size())];
    } else if (u < 0.9) {
      q.type = serve::QueryType::kSpectrum;
      q.step = slice_step;
      const std::size_t nb = ex.spectrum.size();
      const std::size_t lo = rng.below(nb - 3);
      q.kmin = ex.spectrum[lo].k;
      q.kmax = ex.spectrum[lo + 3].k;
    } else {
      q.type = serve::QueryType::kRegion;
      q.step = slice_step;
      const float side = 4.0f;
      q.lo = {static_cast<float>(rng.uniform(0, grid - side)),
              static_cast<float>(rng.uniform(0, grid - side)), 0.0f};
      q.hi = {q.lo[0] + side, q.lo[1] + side,
              static_cast<float>(slice_thickness)};
    }
  }
  return out;
}

bool same(const serve::CatalogStore::HaloRecord& a,
          const serve::CatalogStore::HaloRecord& b) {
  return a.id == b.id && a.count == b.count && a.mass == b.mass &&
         a.center == b.center && a.velocity == b.velocity;
}

/// Compare one answer with the direct read. `wrong` shifts every expected
/// answer, so that a correct server must fail the check.
bool answer_ok(const serve::Query& q, const serve::QueryResult& r,
               const Expected& ex, bool wrong) {
  if (!r.ok) return false;
  switch (q.type) {
    case serve::QueryType::kHaloById: {
      auto it = ex.halos.find(q.halo_id);
      if (it == ex.halos.end() || r.halos.size() != 1) return false;
      auto want = it->second;
      if (wrong) want.mass += 1.0f;
      return same(r.halos[0], want);
    }
    case serve::QueryType::kSpectrum: {
      std::vector<serve::CatalogStore::SpectrumPoint> want;
      for (const auto& p : ex.spectrum)
        if (p.k >= q.kmin && p.k <= q.kmax) want.push_back(p);
      if (wrong) want.pop_back();
      if (want.size() != r.spectrum.size()) return false;
      for (std::size_t i = 0; i < want.size(); ++i)
        if (want[i].k != r.spectrum[i].k ||
            want[i].power != r.spectrum[i].power ||
            want[i].modes != r.spectrum[i].modes)
          return false;
      return true;
    }
    case serve::QueryType::kRegion: {
      std::vector<std::uint64_t> want, got;
      for (const auto& p : ex.slice)
        if (p.x >= q.lo[0] && p.x < q.hi[0] && p.y >= q.lo[1] &&
            p.y < q.hi[1] && p.z >= q.lo[2] && p.z < q.hi[2])
          want.push_back(p.id);
      if (wrong) want.push_back(~std::uint64_t{0});
      for (const auto& p : r.particles) got.push_back(p.id);
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      return want == got;
    }
    case serve::QueryType::kHaloMassRange:
      break;
  }
  return false;
}

/// Offer `queries` at `rate` from this thread on a fixed schedule: it
/// sleeps until shortly before each due time and spins the rest, so it
/// holds no core between requests. A collector thread blocks on the futures
/// in order and stamps each completion; every request is timed from its
/// due time. A request that completes behind an earlier, slower one is
/// stamped when that one completes.
Rung offer(serve::QueryServer& server, const serve::CatalogStore& store,
           const std::vector<serve::Query>& queries, double rate,
           const Expected& ex, bool wrong) {
  Rung rung;
  rung.rate = rate;
  const std::size_t n = queries.size();
  std::vector<std::future<serve::QueryResult>> futures(n);
  std::vector<double> due(n), done(n, -1);
  std::vector<std::size_t> backlog_at_send(n);
  std::atomic<std::size_t> submitted{0}, completed{0};
  rung.cache_before = store.cache().stats();
  const double t0 = now_s() + 1e-3;
  for (std::size_t i = 0; i < n; ++i)
    due[i] = t0 + static_cast<double>(i) / rate;
  const double deadline = t0 + static_cast<double>(n) / rate + kDrainTimeoutS;

  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t s = submitted.load(std::memory_order_acquire);
      while (s <= i) {
        submitted.wait(s, std::memory_order_acquire);
        s = submitted.load(std::memory_order_acquire);
      }
      const std::chrono::duration<double> left(deadline - now_s());
      if (futures[i].wait_for(left) != std::future_status::ready) return;
      done[i] = now_s();
      completed.store(i + 1, std::memory_order_release);
    }
  });
  constexpr double kSpinS = 150e-6;
  for (std::size_t i = 0; i < n; ++i) {
    const double ahead = due[i] - now_s();
    if (ahead > kSpinS)
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead - kSpinS));
    while (now_s() < due[i]) {
    }
    const double now = now_s();
    rung.late.push_back(now - due[i]);
    backlog_at_send[i] = i - completed.load(std::memory_order_acquire);
    rung.backlog_max = std::max(rung.backlog_max, backlog_at_send[i]);
    futures[i] = server.submit(queries[i]);
    submitted.store(i + 1, std::memory_order_release);
    submitted.notify_one();
  }
  collector.join();
  rung.cache_after = store.cache().stats();
  rung.sent = n;

  // Backlog growth: outstanding requests in the last quarter of the window
  // against the first quarter.
  const std::size_t qn = std::max<std::size_t>(1, n / 4);
  double first = 0, last = 0;
  for (std::size_t i = 0; i < qn; ++i) {
    first += static_cast<double>(backlog_at_send[i]);
    last += static_cast<double>(backlog_at_send[n - 1 - i]);
  }
  rung.backlog_grew = last / static_cast<double>(qn) >
                      2.0 * first / static_cast<double>(qn) + 8.0;

  for (std::size_t i = 0; i < n; ++i) {
    const char* type = serve::query_type_name(queries[i].type);
    if (done[i] < 0) {  // unanswered within the drain timeout
      if (rung.failed++ == 0) rung.first_failure = std::string(type) + " unanswered";
      continue;
    }
    rung.latency.push_back(done[i] - due[i]);
    const serve::QueryResult r = futures[i].get();
    if (!answer_ok(queries[i], r, ex, wrong) && rung.failed++ == 0)
      rung.first_failure = std::string(type) + (r.ok ? " wrong" : " refused: " + r.error);
  }
  return rung;
}

/// The median over `parts` consecutive slices of a window (in send order)
/// of each slice's median latency: a host slowdown during part of the
/// window moves it less than the median of the whole window does.
double sliced_median(const std::vector<double>& latency, std::size_t parts) {
  std::vector<double> medians;
  const std::size_t n = latency.size();
  for (std::size_t p = 0; p < parts; ++p)
    medians.push_back(median(std::vector<double>(
        latency.begin() + static_cast<std::ptrdiff_t>(p * n / parts),
        latency.begin() + static_cast<std::ptrdiff_t>((p + 1) * n / parts))));
  return median(medians);
}

// ---- catalogs ---------------------------------------------------------------

/// Write the larger halo catalog through the in-situ writer on 4 ranks.
void write_big_catalog(const std::string& dir, std::uint64_t seed) {
  comm::Machine::run(kFleet, [&](comm::Comm& c) {
    Rng rng(seed * 7919 + 17);
    tree::ParticleArray mine;
    std::uint64_t pid = 0;
    for (int i = 0; i < kLattice * kLattice * kLattice; ++i) {
      const int cx = i / (kLattice * kLattice), cy = (i / kLattice) % kLattice,
                cz = i % kLattice;
      const double centre[3] = {(cx + 0.5) * kCell + rng.uniform(-1, 1),
                                (cy + 0.5) * kCell + rng.uniform(-1, 1),
                                (cz + 0.5) * kCell + rng.uniform(-1, 1)};
      for (std::size_t m = 0; m < cluster_members(i); ++m) {
        // Every rank draws the whole sequence and keeps its share, so the
        // snapshot does not depend on the rank count.
        const float x = static_cast<float>(centre[0] + kSpread * rng.gaussian());
        const float y = static_cast<float>(centre[1] + kSpread * rng.gaussian());
        const float z = static_cast<float>(centre[2] + kSpread * rng.gaussian());
        if (static_cast<int>(pid % static_cast<std::uint64_t>(c.size())) ==
            c.rank())
          mine.push_back(x, y, z, 0, 0, 0, 1.0f, pid);
        ++pid;
      }
    }
    serve::InSituConfig cfg;
    cfg.output_dir = dir;
    cfg.spectrum = false;
    cfg.slice = false;
    gio::GlobalMeta meta;
    meta.scale_factor = 1.0;
    meta.box_mpch = kLattice * kCell;
    meta.grid = static_cast<std::uint64_t>(kLattice * kCell);
    serve::write_catalogs(c, cfg, kBigStep, meta, mine, {});
  });
}

template <typename T>
std::vector<T> column(const std::vector<std::byte>& bytes) {
  std::vector<T> out(bytes.size() / sizeof(T));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  return out;
}

/// Read whole catalog files with gio::read, bypassing the store and cache.
std::map<std::string, std::vector<std::byte>> direct_read(
    const std::string& path,
    const std::vector<std::pair<std::string, gio::VarType>>& vars) {
  std::map<std::string, std::vector<std::byte>> out;
  comm::Machine::run(1, [&](comm::Comm& c) {
    std::vector<gio::ReadVar> rv;
    for (const auto& [name, type] : vars) rv.push_back({name, type, &out[name]});
    const gio::ReadReport rep = gio::read(c, path, rv);
    if (!rep.corrupt.empty())
      throw std::runtime_error("corrupt catalog " + path);
  });
  return out;
}

Expected read_expected(const std::string& dir, int slice_step) {
  using gio::VarType;
  Expected ex;
  auto h = direct_read(serve::halos_path(dir, kBigStep),
                       {{"halo_id", VarType::kUInt64}, {"count", VarType::kUInt64},
                        {"mass", VarType::kFloat32}, {"cx", VarType::kFloat32},
                        {"cy", VarType::kFloat32}, {"cz", VarType::kFloat32},
                        {"vcx", VarType::kFloat32}, {"vcy", VarType::kFloat32},
                        {"vcz", VarType::kFloat32}});
  const auto id = column<std::uint64_t>(h["halo_id"]);
  const auto count = column<std::uint64_t>(h["count"]);
  const auto mass = column<float>(h["mass"]);
  const auto cx = column<float>(h["cx"]), cy = column<float>(h["cy"]),
             cz = column<float>(h["cz"]);
  const auto vx = column<float>(h["vcx"]), vy = column<float>(h["vcy"]),
             vz = column<float>(h["vcz"]);
  for (std::size_t i = 0; i < id.size(); ++i)
    ex.halos[id[i]] = {id[i], count[i], mass[i], {cx[i], cy[i], cz[i]},
                       {vx[i], vy[i], vz[i]}};

  auto s = direct_read(serve::spectrum_path(dir, slice_step),
                       {{"k", VarType::kFloat32}, {"power", VarType::kFloat32},
                        {"modes", VarType::kUInt64}});
  const auto k = column<float>(s["k"]), p = column<float>(s["power"]);
  const auto modes = column<std::uint64_t>(s["modes"]);
  for (std::size_t i = 0; i < k.size(); ++i)
    ex.spectrum.push_back({k[i], p[i], modes[i]});
  std::sort(ex.spectrum.begin(), ex.spectrum.end(),
            [](const auto& a, const auto& b) { return a.k < b.k; });

  auto sl = direct_read(serve::slice_path(dir, slice_step),
                        {{"x", VarType::kFloat32}, {"y", VarType::kFloat32},
                         {"z", VarType::kFloat32}, {"vx", VarType::kFloat32},
                         {"vy", VarType::kFloat32}, {"vz", VarType::kFloat32},
                         {"id", VarType::kUInt64}});
  const auto x = column<float>(sl["x"]), y = column<float>(sl["y"]),
             z = column<float>(sl["z"]);
  const auto svx = column<float>(sl["vx"]), svy = column<float>(sl["vy"]),
             svz = column<float>(sl["vz"]);
  const auto sid = column<std::uint64_t>(sl["id"]);
  for (std::size_t i = 0; i < x.size(); ++i)
    ex.slice.push_back({x[i], y[i], z[i], svx[i], svy[i], svz[i], sid[i]});
  return ex;
}

// ---- the campaign -----------------------------------------------------------

campaign::CampaignSpec sweep_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec;
  // Small runs with little physics; the rest keeps the SimulationConfig
  // defaults. With 16^3 particles the short-range kernel took three quarters
  // of a sweep's makespan, which this workload is not meant to measure.
  spec.base.grid = 16;
  spec.base.particles_per_dim = 8;
  spec.base.box_mpch = 32.0;
  spec.base.steps = 4;
  for (int i = 0; i < kRuns; ++i)
    spec.seeds.push_back(seed * 100 + static_cast<std::uint64_t>(i));
  spec.width = kWidth;
  return spec;
}

campaign::CampaignConfig sweep_config(const std::string& root) {
  campaign::CampaignConfig cfg;
  cfg.root_dir = root;
  cfg.fleet_ranks = kFleet;
  cfg.max_concurrent_runs = kConcurrent;
  cfg.insitu_cadence = kInsituCadence;
  cfg.machine.recv_timeout_s = 60;  // a hang fails the run instead of the bench
  return cfg;
}

struct Sweep {
  double makespan_s = 0;
  double utilization = 0;
  int finished = 0;
  int bad = 0;  ///< quarantined, unfinished, or with an unverifiable checkpoint
  std::string served_dir;  ///< first run's in-situ catalogs
};

Sweep run_sweep(const std::string& root, std::uint64_t seed) {
  fs::remove_all(root);
  const campaign::CampaignSpec spec = sweep_spec(seed);
  Sweep sw;
  campaign::CampaignOrchestrator orch(spec, sweep_config(root));
  const campaign::CampaignReport rep = orch.run();
  sw.makespan_s = rep.makespan_s;
  sw.utilization = rep.utilization;
  sw.finished = rep.finished;
  sw.served_dir = orch.run_dir(rep.runs.front().spec.name) + "/insitu";

  for (const auto& run : rep.runs) {
    bool ok = run.phase == campaign::RunPhase::kFinished;
    // The run's checkpoints must read back clean.
    int ckpts = 0;
    for (const auto& e : fs::directory_iterator(orch.run_dir(run.spec.name) + "/ckpt"))
      if (e.path().extension() == ".gio") {
        ++ckpts;
        ok = ok && gio::verify_file(e.path().string()).ok;
      }
    if (!ok || ckpts == 0) ++sw.bad;
  }
  return sw;
}

/// One set-up sample: orchestrator construction on an empty root plus
/// opening the catalogs a sweep served.
double setup_sample(const campaign::CampaignSpec& spec,
                    const std::string& root, const std::string& served_dir) {
  fs::remove_all(root);
  const double t0 = now_s();
  const campaign::CampaignOrchestrator orch(spec, sweep_config(root));
  const serve::CatalogStore store(served_dir);
  return now_s() - t0;
}

double journal_append_us(const std::string& dir) {
  fs::create_directories(dir);
  campaign::CampaignJournal journal(dir + "/probe_journal.jsonl", false);
  std::vector<double> t;
  for (int i = 0; i < 64; ++i) {
    campaign::JournalEntry e;
    e.event = "checkpointed";
    e.run = "probe";
    e.step = i;
    const double t0 = now_s();
    journal.append(e);
    t.push_back(now_s() - t0);
  }
  return 1e6 * median(t);
}

/// Median single-threaded execution time (seconds) of the queries in `qs`,
/// called on `store` directly; with `cold` the cache is emptied before each.
double serial_time(const serve::CatalogStore& store,
                   const std::vector<serve::Query>& qs, bool cold) {
  std::vector<double> t;
  for (const auto& q : qs) {
    if (cold) store.cache().clear();
    const double t0 = now_s();
    switch (q.type) {
      case serve::QueryType::kHaloById:
        store.halo_by_id(q.step, q.halo_id);
        break;
      case serve::QueryType::kSpectrum:
        store.spectrum(q.step, q.kmin, q.kmax);
        break;
      case serve::QueryType::kRegion:
        store.region(q.step, q.lo, q.hi);
        break;
      case serve::QueryType::kHaloMassRange:
        break;
    }
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace

void run_campaign_serve(const Args& args, Result& res, SpanLog& spans) {
  const std::string root = args.work_dir + "/campaign";
  // ---- the sweeps ----
  std::vector<double> setups, makespans, steps_rate, per_particle, util;
  const campaign::CampaignSpec spec = sweep_spec(args.seed);
  const double steps_per_sweep = kRuns * spec.base.steps;
  const double substep_particles =
      steps_per_sweep * spec.base.subcycles *
      std::pow(static_cast<double>(spec.base.particles_per_dim), 3);
  Sweep last;
  int bad_runs = 0;
  const double t_start = now_s();
  for (int i = 0;; ++i) {
    const double t0 = now_s();
    Sweep sw = run_sweep(root, args.seed);
    spans.add(i == 0 ? "campaign.sweep.warmup" : "campaign.sweep",
              SpanLog::kDriver, t0, now_s() - t0);
    res.attempted += kRuns;
    res.failed += static_cast<std::uint64_t>(sw.bad);
    bad_runs += sw.bad;
    if (i > 0) {  // the cold first sweep never enters a metric
      makespans.push_back(sw.makespan_s);
      steps_rate.push_back(steps_per_sweep / sw.makespan_s);
      per_particle.push_back(1e9 * sw.makespan_s / substep_particles);
      util.push_back(sw.utilization);
      // Set-up samples after every timed sweep, so their median spans the
      // host's state over the whole run as the makespan's does. The sweep's
      // writes reach the disk first, so no sample waits on its write-back.
      ::sync();
      for (int k = 0; k < kSetupSamplesPerSweep; ++k)
        setups.push_back(
            setup_sample(spec, args.work_dir + "/setup", sw.served_dir));
    }
    last = sw;
    if (i == 0) reset_peak_rss();  // the peak covers the timed work only
    const bool enough = args.trace ? i >= 2 : (i >= 4 &&
                        now_s() - t_start > 0.5 * args.seconds);
    if (enough) break;
  }
  res.check("every campaign run finishes with verified checkpoints",
            bad_runs == 0, std::to_string(bad_runs) + " runs failed");

  // ---- the catalogs ----
  const std::string dir = last.served_dir;
  write_big_catalog(dir, args.seed);
  const serve::CatalogStore probe_store(dir);
  const int slice_step = [&] {
    int s = -1;
    for (const int st : probe_store.steps())
      if (st != kBigStep) s = std::max(s, st);
    return s;
  }();
  const Expected ex = read_expected(dir, slice_step);
  // Reference summary: halo count and cumulative mass function.
  std::vector<double> summary = {static_cast<double>(ex.halos.size())};
  for (const double edge : kMassEdges) {
    double n = 0;
    for (const auto& [id, h] : ex.halos) n += h.mass >= edge ? 1 : 0;
    summary.push_back(n);
  }
  res.series["halo_summary"] = summary;
  res.series["halo_summary_edges"] = kMassEdges;

  // The cache holds every catalog served, and each window starts with it
  // empty, so the miss path (pread + CRC) runs on first touches and nothing
  // is evicted. A cache below the catalog's bytes would measure eviction,
  // but CatalogStore's typed column views do not hold their cache block:
  // when the cache drops a block a concurrent query still reads, the view
  // dangles (use-after-free in src/serve/catalog_store.cpp) and answers go
  // wrong. --evicting-cache serves from 3/4 of the halo catalog's bytes to
  // show it; make that the default once the store holds its blocks.
  const std::size_t halo_bytes = fs::file_size(serve::halos_path(dir, kBigStep));
  const std::size_t cache_bytes = args.evicting_cache
                                      ? halo_bytes * 3 / 4
                                      : serve::CatalogStore::Config{}.cache_bytes;
  serve::CatalogStore store(dir, serve::CatalogStore::Config{cache_bytes, 8});
  const int workers = std::max(1, available_cores() - 1);
  serve::QueryServer server(store, serve::QueryServer::Config{workers, 4096, nullptr, nullptr});
  res.info["workers"] = std::to_string(workers);
  res.info["cache_bytes"] = std::to_string(cache_bytes);

  Rng rng(args.seed * 31 + 5);
  std::vector<std::uint64_t> all_ids;
  for (const auto& [id, h] : ex.halos) all_ids.push_back(id);
  std::vector<std::uint64_t> hot;
  for (int i = 0; i < 32; ++i) hot.push_back(all_ids[rng.below(all_ids.size())]);
  const auto make = [&](double rate, double window) {
    return make_queries(static_cast<std::size_t>(rate * window), rng, ex, hot,
                        slice_step, static_cast<int>(spec.base.grid),
                        spec.base.insitu.slice_thickness);
  };
  std::uint64_t query_failures = 0;
  const auto run_rung = [&](double rate, double window, const char* name) {
    const auto qs = make(rate, window);
    store.cache().clear();  // no query is in flight between windows
    const double t0 = now_s();
    Rung r = offer(server, store, qs, rate, ex, args.wrong_reference);
    spans.add(name, SpanLog::kDriver, t0, now_s() - t0);
    res.attempted += r.sent;
    res.failed += r.failed;
    query_failures += r.failed;
    if (!r.first_failure.empty() && res.info.count("first_query_failure") == 0)
      res.info["first_query_failure"] = r.first_failure;
    return r;
  };

  run_rung(kReferenceRate, 0.05 * args.seconds, "serve.warmup");  // discarded
  const Rung ref = run_rung(kReferenceRate, 0.3 * args.seconds, "serve.reference");

  auto& m = res.metrics;
  m["setup_s"] = median(setups);
  m["makespan_s"] = median(makespans);
  m["steps_per_s"] = median(steps_rate);
  m["ns_per_substep_particle"] = median(per_particle);
  std::string spans_list;
  for (const double x : makespans) spans_list += fmt("%.3f ", x);
  res.info["sweep_makespans_s"] = spans_list;

  res.info["queries_at_reference"] = std::to_string(ref.sent);
  res.info["reference_quantiles_us"] =
      fmt("p50 %.0f ", 1e6 * quantile(ref.latency, 0.5)) +
      fmt("p90 %.0f ", 1e6 * quantile(ref.latency, 0.9)) +
      fmt("p99 %.0f ", 1e6 * quantile(ref.latency, 0.99)) +
      fmt("max %.0f; ", 1e6 * quantile(ref.latency, 1.0)) +
      fmt("late p99 %.0f ", 1e6 * quantile(ref.late, 0.99)) +
      fmt("backlog max %.0f", static_cast<double>(ref.backlog_max));
  const auto check_answers = [&] {
    res.check("every query answer matches a direct read of the catalog",
              query_failures == 0,
              std::to_string(query_failures) +
                  " queries refused, wrong or unanswered");
  };
  if (!args.trace) {
    check_answers();
    return;
  }

  // ---- traced: layer probes ----
  const std::string io_dir = args.work_dir + "/probe";
  fs::create_directories(io_dir);
  core::SimulationConfig probe_cfg = spec.base;
  probe_cfg.seed = args.seed;
  traced_simulation(probe_cfg, kWidth, io_dir, res, spans);

  m["campaign.utilization"] = median(util);
  m["campaign.idle_rank_s"] = (1.0 - median(util)) * kFleet * median(makespans);
  m["campaign.journal_append_us"] = journal_append_us(io_dir);

  const auto mix = make(kReferenceRate, 0.25);
  const double exec_s = serial_time(store, mix, false);
  serve::CatalogStore warm_store(dir);  // default cache holds everything
  serial_time(warm_store, mix, false);  // warm it
  m["serve.hit_us"] = 1e6 * serial_time(warm_store, mix, false);
  m["serve.miss_us"] = 1e6 * serial_time(warm_store, mix, true);
  const auto hits = ref.cache_after.hits - ref.cache_before.hits;
  const auto misses = ref.cache_after.misses - ref.cache_before.misses;
  m["serve.hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  m["serve.queue_us"] = 1e6 * (quantile(ref.latency, 0.5) - exec_s);
  m["serve.backlog_max"] = static_cast<double>(ref.backlog_max);
  m["serve.generator_late_us"] = 1e6 * quantile(ref.late, 0.99);
  m["serve.p50_us"] = 1e6 * sliced_median(ref.latency, 6);
  m["serve.p99_us"] = 1e6 * quantile(ref.latency, 0.99);

  double at_slo = 0;
  std::string ladder;
  for (const double rate : kLadder) {
    const Rung r = rate == kReferenceRate
                       ? ref
                       : run_rung(rate, 0.05 * args.seconds, "serve.ladder");
    ladder += fmt("%.0f/s p99 ", rate) +
              fmt("%.0f us, ", 1e6 * quantile(r.latency, 0.99)) +
              std::to_string(r.failed) + " failed" +
              (r.backlog_grew ? ", backlog grew" : "") +
              (r.passes() ? ": ok; " : ": miss; ");
    if (!r.passes()) break;
    at_slo = rate;
  }
  m["serve.qps_at_slo"] = at_slo;
  res.info["ladder"] = ladder;
  res.info["p99_limit_us"] = fmt("%.0f", 1e6 * kP99LimitS);
  check_answers();
}

}  // namespace perfbench
