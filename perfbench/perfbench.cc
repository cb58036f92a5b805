// perfbench: the repository benchmark driver.
//
//   perfbench --workload analytics|adhoc_compile|serve_prepared
//             --seed N --seconds S --trace 0|1 [--smoke]
//
// One process runs one workload: it generates the data from the seed, sets
// up (load + warm-up) several times and keeps the last, computes the eager
// runtime's answer for every source it will run (the oracle), measures for
// S seconds, and prints one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures half the time untraced and half traced, and prints the per-layer
// metrics. Every layer is timed from outside the program: around calls into
// its public entry points, from the spans the program's TraceCollector
// already records, and from its MetricsRegistry. README.md beside this file
// says why each workload exists and what each layer metric should move.
//
// Exit status: 0 with a result line, 1 on a setup or oracle failure, 2 on a
// usage error (no result line in either case).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.h"
#include "obs/metrics/memory_accountant.h"
#include "obs/metrics/metrics.h"
#include "obs/trace.h"
#include "serve/connection_manager.h"
#include "workloads/datasci.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/queries.h"

namespace {

using pytond::Result;
using pytond::RunOptions;
using pytond::Session;
using pytond::Status;
using pytond::Table;
using pytond::obs::NowNs;
using pytond::obs::SpanNode;
using TablePtr = std::shared_ptr<const Table>;

namespace ds = pytond::workloads::datasci;
namespace tpch = pytond::workloads::tpch;

/// The differential tests' tolerance against the eager runtime.
constexpr double kOracleEps = 1e-6;
/// Attribution completeness: the traced layers must account for all but
/// this share of the traced pass (outside-measured call wall time).
constexpr double kUnattributedBound = 0.15;
/// Serve: the distinct date shifts per run. Each (source, shift) pair needs
/// its own eager answer, so the count bounds the oracle's cost.
constexpr int kServeVariants = 3;

// ---------------------------------------------------------------- sources

struct Source {
  std::string name;
  std::string text;
};

std::vector<Source> DataSciSources() {
  return {{"crime_index", ds::CrimeIndexSource()},
          {"birth_analysis", ds::BirthAnalysisSource()},
          {"n3", ds::N3Source()},
          {"n9", ds::N9Source()},
          {"hybrid_matmul", ds::HybridMatMulSource(false)},
          {"hybrid_covar", ds::HybridCovarSource(false)},
          {"covar_dense", ds::CovarDenseSource()},
          {"covar_sparse", ds::CovarSparseSource()}};
}

/// The 22 TPC-H queries plus the 8 data-science workloads.
std::vector<Source> AllSources() {
  std::vector<Source> out;
  for (const auto& q : tpch::AllQueries()) out.push_back({q.name, q.source});
  for (Source& s : DataSciSources()) out.push_back(std::move(s));
  return out;
}

/// The serve mix: short and medium queries, including the four whose
/// prepared form filters on a parameterized date (Q6, Q12, Q14, Q15).
std::vector<Source> ServeSources() {
  std::vector<Source> out = DataSciSources();
  for (int id : {2, 5, 6, 8, 11, 12, 14, 15, 16, 22}) {
    const tpch::Query& q = tpch::GetQuery(id);
    out.push_back({q.name, q.source});
  }
  return out;
}

/// The analytics sources less Q17. At the adhoc_compile sizes Q17's filter
/// leaves nothing for most data seeds, and the compiled sum over that empty
/// frame is NULL where the eager runtime's is 0.0 (README.md, finding 3), so
/// no result of it could be checked as correct. Q17 runs in analytics, where
/// its filter is not empty; put it back here once the empty sum is fixed.
std::vector<Source> AdhocSources() {
  std::vector<Source> out = AllSources();
  out.erase(std::find_if(out.begin(), out.end(),
                         [](const Source& s) { return s.name == "Q17"; }));
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Renames the binding the function returns (every whole-word use outside
/// string literals and attribute position) to `<name>_<tag>`. The result is
/// the same program under a source text the plan cache has never seen;
/// unlike a comment or a literal edit, it cannot hit under a normalized or
/// skeleton key.
std::string RenameReturnedBinding(const std::string& src,
                                  const std::string& tag) {
  const size_t ret = src.rfind("return ");
  if (ret == std::string::npos) return src;
  size_t b = ret + 7;
  size_t e = b;
  while (e < src.size() && IsIdentChar(src[e])) ++e;
  const std::string name = src.substr(b, e - b);
  if (name.empty()) return src;
  const std::string renamed = name + "_" + tag;
  std::string out;
  out.reserve(src.size() + 64);
  char quote = 0;
  for (size_t i = 0; i < src.size();) {
    const char c = src[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      out += c;
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      out += c;
      ++i;
      continue;
    }
    if (IsIdentChar(c)) {
      size_t j = i;
      while (j < src.size() && IsIdentChar(src[j])) ++j;
      const bool attribute = i > 0 && src[i - 1] == '.';
      if (!attribute && src.compare(i, j - i, name) == 0 &&
          j - i == name.size()) {
        out += renamed;
      } else {
        out.append(src, i, j - i);
      }
      i = j;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Shifts the day of month of every 'YYYY-MM-DD' literal by `shift`
/// (mod 28, so every date stays valid and both ends of a range move alike),
/// as bench/serve_throughput.cc does. Sources without dates are unchanged.
std::string ShiftDates(const std::string& source, int shift) {
  std::string out = source;
  for (size_t i = 0; i + 11 < out.size(); ++i) {
    if (out[i] != '\'' || out[i + 11] != '\'') continue;
    const char* p = out.data() + i + 1;
    if (!(IsDigit(p[0]) && IsDigit(p[1]) && IsDigit(p[2]) && IsDigit(p[3]) &&
          p[4] == '-' && IsDigit(p[5]) && IsDigit(p[6]) && p[7] == '-' &&
          IsDigit(p[8]) && IsDigit(p[9]))) {
      continue;
    }
    int day = (p[8] - '0') * 10 + (p[9] - '0');
    day = (day - 1 + shift) % 28 + 1;
    out[i + 9] = static_cast<char>('0' + day / 10);
    out[i + 10] = static_cast<char>('0' + day % 10);
    i += 11;
  }
  return out;
}

// ------------------------------------------------------------- statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double MsSince(uint64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// mark (VmHWM), so that the peak read later covers only what follows:
/// the measured loop, not data generation or the eager oracle.
void ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// Peak resident MB since the last ResetPeakRss (VmHWM).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ----------------------------------------------------------- host identity

/// Fixed integer work, the calibration unit of the host fingerprint.
uint64_t CalibrationLoop(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall ms for `threads` threads each running the calibration loop once.
double ParallelProbeMs(int threads, uint64_t iters) {
  std::atomic<uint64_t> sink{0};
  const uint64_t t0 = NowNs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      sink += CalibrationLoop(iters, static_cast<uint64_t>(t) + 3);
    });
  }
  for (auto& th : pool) th.join();
  return MsSince(t0);
}

/// nproc, a calibration score and the 1/2/4-thread parallel probe. Recorded
/// with every run so figures from different hosts can be read relative to
/// each other; nothing is gated on it.
std::vector<Metric> HostFingerprint(bool smoke) {
  const uint64_t iters = smoke ? 2'000'000 : 40'000'000;
  const double t1 = ParallelProbeMs(1, iters);
  const double t2 = ParallelProbeMs(2, iters);
  const double t4 = ParallelProbeMs(4, iters);
  return {
      {"host.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
       "count"},
      {"host.calibration_mops", static_cast<double>(iters) / t1 / 1e3,
       "Mops/s"},
      {"host.parallel_2t", 2 * t1 / t2, "x"},
      {"host.parallel_4t", 4 * t1 / t4, "x"},
  };
}

// ------------------------------------------------------------- workloads

struct Sizes {
  double tpch_sf;
  int64_t ds_rows;
  int64_t cov_rows;
  int cov_cols;
  double cov_density;
};

struct WorkloadSpec {
  std::string name;
  Sizes sizes;
  int num_threads;
  int setup_reps;
  std::vector<Source> sources;
  /// Passes after which `peak_rss_mb` is read; 0 = the whole loop.
  int rss_passes = 0;
};

std::optional<WorkloadSpec> MakeSpec(const std::string& name, bool smoke) {
  const Sizes tiny{0.001, 64, 64, 8, 0.5};
  if (name == "analytics") {
    return WorkloadSpec{name,
                        smoke ? tiny : Sizes{0.05, 100000, 10000, 32, 0.5},
                        2, smoke ? 1 : 2, AllSources()};
  }
  if (name == "adhoc_compile") {
    // At 32 covariance columns the 1,024-term covar_dense compile alone
    // would take most of a pass; 8 columns keep every source's share.
    // Every pass adds 29 plan-cache entries, so peak RSS is read after a
    // fixed number of passes: a faster compile must not read as growth.
    return WorkloadSpec{name, tiny, 1, smoke ? 1 : 25, AdhocSources(), 100};
  }
  if (name == "serve_prepared") {
    return WorkloadSpec{name,
                        smoke ? tiny : Sizes{0.02, 10000, 256, 8, 0.5}, 1,
                        smoke ? 1 : 9, ServeSources()};
  }
  return std::nullopt;
}

Status Populate(pytond::engine::Database* db, const Sizes& s,
                uint64_t seed) {
  PYTOND_RETURN_IF_ERROR(tpch::Populate(db, s.tpch_sf, seed * 1000 + 42));
  PYTOND_RETURN_IF_ERROR(
      ds::PopulateCrimeIndex(db, s.ds_rows, seed * 1000 + 7));
  PYTOND_RETURN_IF_ERROR(
      ds::PopulateBirthAnalysis(db, s.ds_rows, seed * 1000 + 11));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN3(db, s.ds_rows, seed * 1000 + 13));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN9(db, s.ds_rows, seed * 1000 + 17));
  PYTOND_RETURN_IF_ERROR(ds::PopulateHybrid(db, s.ds_rows, seed * 1000 + 19));
  return ds::PopulateCovariance(db, s.cov_rows, s.cov_cols, s.cov_density,
                                seed * 1000 + 23);
}

// ----------------------------------------------------------------- oracle

/// Eager-runtime answers keyed by source text. The reference never comes
/// from the engine under test, and its time stays out of every timed
/// section and out of setup.
class Oracle {
 public:
  Status Add(const Session& session, const std::string& name,
             const std::string& text) {
    if (answers_.count(text) > 0) return Status::OK();
    const uint64_t t0 = NowNs();
    Result<Table> r = session.RunBaseline(text);
    const double ms = MsSince(t0);
    if (!r.ok()) {
      return Status::Internal("eager oracle failed on " + name + ": " +
                              r.status().ToString());
    }
    answers_.emplace(text, std::move(*r));
    total_ms_ += ms;
    if (eager_ms_.count(name) == 0) eager_ms_[name] = ms;
    return Status::OK();
  }

  /// True when `got` equals the eager answer for `text`.
  bool Check(const std::string& name, const std::string& text,
             const Table& got) const {
    auto it = answers_.find(text);
    std::string diff;
    if (it != answers_.end() &&
        Table::UnorderedEquals(got, it->second, kOracleEps, &diff)) {
      return true;
    }
    std::cerr << "perfbench: failed call: " << name
              << " differs from the eager oracle"
              << (diff.empty() ? "" : ": " + diff) << "\n";
    return false;
  }

  double total_ms() const { return total_ms_; }
  /// Eager ms of each source's first (unshifted) text.
  const std::map<std::string, double>& eager_ms() const { return eager_ms_; }

 private:
  std::map<std::string, Table> answers_;
  std::map<std::string, double> eager_ms_;
  double total_ms_ = 0;
};

// ------------------------------------------------------------ trace ledger

/// Per-layer totals read from the program's span trees and the
/// benchmark's own outside timers. All times in ms, summed over calls.
struct Ledger {
  std::map<std::string, double> ms;  // layer metric name -> summed ms
  double pass_runs = 0;
  double passes_changed = 0;
  double pipelines = 0;
  double morsels = 0;
  double query_peak_mb = 0;
  /// Outside-measured wall time of the traced calls.
  double call_ms = 0;
  /// Sum of the disjoint layer spans: compile, plan cache, SQL parse /
  /// bind / plan, and pipeline execution.
  double attributed_ms = 0;

  void Merge(const Ledger& o) {
    for (const auto& [k, v] : o.ms) ms[k] += v;
    pass_runs += o.pass_runs;
    passes_changed += o.passes_changed;
    pipelines += o.pipelines;
    morsels += o.morsels;
    query_peak_mb = std::max(query_peak_mb, o.query_peak_mb);
    call_ms += o.call_ms;
    attributed_ms += o.attributed_ms;
  }

  /// Adds one call's span tree.
  void AddTrace(const SpanNode& n) {
    const double d = Ms(n.duration_ns);
    if (n.category == "compile") {
      ms["frontend.compile_ms"] += d;
      attributed_ms += d;
    } else if (n.category == "phase") {
      static const std::map<std::string, std::string> kPhase = {
          {"parse", "frontend.parse_ms"},
          {"anf", "frontend.anf_ms"},
          {"analyze", "frontend.analyze_ms"},
          {"translate", "frontend.translate_ms"},
          {"verify", "tondir.verify_ms"},
          {"verify_params", "tondir.verify_ms"},
          {"optimize", "optimizer.optimize_ms"},
          {"sqlgen", "sqlgen.sqlgen_ms"}};
      auto it = kPhase.find(n.name);
      if (it != kPhase.end()) ms[it->second] += d;
    } else if (n.category == "pass") {
      pass_runs += 1;
      passes_changed += static_cast<double>(n.Counter("changed"));
      return;
    } else if (n.category == "engine") {
      if (n.name == "parse_sql" || n.name == "bind" ||
          n.name == "plan_tuning") {
        ms["engine." + n.name + "_ms"] += d;
        attributed_ms += d;
      } else if (n.name == "plan_cache" || n.name == "verify_plans") {
        attributed_ms += d;
      }
    } else if (n.category == "pipeline") {
      ms["engine.exec_ms"] += d;
      attributed_ms += d;
      pipelines += 1;
      morsels += static_cast<double>(n.Counter("morsels"));
      return;
    } else if (n.category == "operator") {
      const uint64_t self = n.duration_ns > n.ChildDurationNs("operator")
                                ? n.duration_ns - n.ChildDurationNs("operator")
                                : 0;
      ms["engine.op." + OperatorBucket(n) + ".self_ms"] += Ms(self);
    }
    for (const auto& c : n.children) AddTrace(*c);
  }

 private:
  static double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

  static std::string OperatorBucket(const SpanNode& n) {
    const std::string base = n.name.substr(0, n.name.find(':'));
    if (base == "HashJoin") {
      // A cross join records no build side.
      return n.Counter("build_buckets") == 0 && n.Counter("build_rows") == 0
                 ? "CrossJoin"
                 : "HashJoin";
    }
    for (const char* known :
         {"Aggregate", "Filter", "Scan", "Project", "Sort", "Window"}) {
      if (base == known) return base;
    }
    return "other";
  }
};

// --------------------------------------------------------- measurement

/// What one measured phase observed. Latencies are outside-measured wall
/// ms around one public call; passes are sweeps over the source list.
struct Measured {
  std::vector<double> call_ms;
  std::map<std::string, std::vector<double>> source_ms;
  std::vector<double> pass_ms;
  /// Passes completed (serve: calls / sources, partial sweeps included).
  double passes = 0;
  double cpu_ms = 0;
  double window_ms = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  double peak_rss_mb = 0;
};

struct Context {
  WorkloadSpec spec;
  uint64_t seed = 0;
  bool smoke = false;
  std::shared_ptr<pytond::engine::Database> db;
  std::unique_ptr<Session> session;  // analytics / adhoc caller; oracle
  std::unique_ptr<pytond::serve::ConnectionManager> mgr;  // serve only
  Oracle oracle;
  RunOptions options;
  double setup_s = 0;
  double populate_ms = 0;
  /// serve: the text of source i under variant k.
  std::vector<std::vector<std::string>> variants;
};

/// Counters of the plan cache the measured calls go through (the serve
/// connections share the manager's cache, not the oracle session's).
pytond::PlanCacheStats CacheStats(const Context& ctx) {
  return ctx.mgr ? ctx.mgr->shared_cache()->stats()
                 : ctx.session->plan_cache_stats();
}

/// Text of source `i` on pass `pass` of a closed-loop workload.
std::string ClosedLoopText(const Context& ctx, size_t i, uint64_t pass) {
  const std::string& text = ctx.spec.sources[i].text;
  if (ctx.spec.name != "adhoc_compile") return text;
  return RenameReturnedBinding(text, "s" + std::to_string(ctx.seed) + "p" +
                                         std::to_string(pass) + "i" +
                                         std::to_string(i));
}

/// One caller, closed loop, through Session::Run. Full passes only; stops
/// starting passes once `seconds` have gone by (at least `min_passes`).
/// The oracle comparison runs after each call's clocks stop.
Measured ClosedLoop(Context& ctx, double seconds, int min_passes,
                    uint64_t first_pass, Ledger* ledger) {
  Measured m;
  const auto& sources = ctx.spec.sources;
  const uint64_t start = NowNs();
  for (uint64_t pass = first_pass;; ++pass) {
    const int done = static_cast<int>(pass - first_pass);
    if (done >= min_passes && MsSince(start) >= seconds * 1e3) break;
    double pass_ms = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
      const std::string text = ClosedLoopText(ctx, i, pass);
      RunOptions opts = ctx.options;
      pytond::obs::TraceCollector trace;
      pytond::obs::MemoryAccountant peak;
      if (ledger != nullptr) {
        opts.trace = &trace;
        opts.mem = &peak;
      }
      const double cpu0 = CpuMs();
      const uint64_t t0 = NowNs();
      Result<TablePtr> r = ctx.session->Run(text, opts);
      const double ms = MsSince(t0);
      m.cpu_ms += CpuMs() - cpu0;
      pass_ms += ms;
      m.call_ms.push_back(ms);
      m.source_ms[sources[i].name].push_back(ms);
      ++m.attempted;
      if (!r.ok()) {
        std::cerr << "perfbench: failed call: " << sources[i].name << ": "
                  << r.status().ToString() << "\n";
        ++m.errors;
      } else if (!ctx.oracle.Check(sources[i].name, sources[i].text, **r)) {
        ++m.wrong;
      }
      if (ledger != nullptr) {
        ledger->AddTrace(trace.root());
        ledger->call_ms += ms;
        ledger->query_peak_mb = std::max(
            ledger->query_peak_mb, static_cast<double>(peak.peak()) / 1048576);
      }
    }
    m.pass_ms.push_back(pass_ms);
    if (static_cast<int>(m.pass_ms.size()) == ctx.spec.rss_passes) {
      m.peak_rss_mb = PeakRssMb();
    }
  }
  m.window_ms = MsSince(start);
  m.passes = static_cast<double>(m.pass_ms.size());
  if (m.peak_rss_mb == 0) m.peak_rss_mb = PeakRssMb();
  return m;
}

/// Four client threads, each with its own Connection, in a closed loop
/// through Connection::Run (admission, PREPARE, EXECUTE). Client c starts
/// its sweep at source c and uses date variant (seed + c + sweep) mod V.
/// Results are kept and compared with the oracle after the window closes.
Measured ServeLoop(Context& ctx, double seconds, int min_sweeps,
                   Ledger* ledger, double* queue_depth_max) {
  constexpr int kClients = 4;
  const auto& sources = ctx.spec.sources;
  const size_t n = sources.size();
  struct Call {
    uint32_t source;
    uint32_t variant;
    TablePtr result;
  };
  struct ClientLog {
    std::vector<double> call_ms;
    std::vector<Call> calls;
    std::vector<std::string> errors;
    Ledger ledger;
  };
  std::vector<ClientLog> logs(kClients);
  std::vector<std::unique_ptr<pytond::serve::Connection>> conns;
  for (int c = 0; c < kClients; ++c) conns.push_back(ctx.mgr->Connect());

  std::atomic<int> ready{0};
  std::atomic<bool> sampling{ledger != nullptr};
  std::thread sampler;
  if (ledger != nullptr) {
    sampler = std::thread([&] {
      auto& gauge = ctx.db->metrics().gauge("tond_serve_queue_depth");
      int64_t max_depth = 0;
      while (sampling.load()) {
        max_depth = std::max(max_depth, gauge.Value());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      *queue_depth_max = static_cast<double>(max_depth);
    });
  }
  const double cpu0 = CpuMs();
  uint64_t start = 0;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      ++ready;
      while (ready.load() < kClients) std::this_thread::yield();
      const uint64_t t_start = NowNs();
      for (uint64_t sweep = 0;; ++sweep) {
        if (static_cast<int>(sweep) >= min_sweeps &&
            MsSince(t_start) >= seconds * 1e3) {
          break;
        }
        for (size_t w = 0; w < n; ++w) {
          const uint32_t i = static_cast<uint32_t>((w + c) % n);
          const uint32_t k = static_cast<uint32_t>(
              (ctx.seed + static_cast<uint64_t>(c) + sweep) % kServeVariants);
          RunOptions opts = ctx.options;
          pytond::obs::TraceCollector trace;
          pytond::obs::MemoryAccountant peak;
          if (ledger != nullptr) {
            opts.trace = &trace;
            opts.mem = &peak;
          }
          const uint64_t t0 = NowNs();
          Result<TablePtr> r = conns[c]->Run(ctx.variants[i][k], opts);
          const double ms = MsSince(t0);
          log.call_ms.push_back(ms);
          if (r.ok()) {
            log.calls.push_back({i, k, *r});
          } else {
            log.calls.push_back({i, k, nullptr});
            log.errors.push_back(sources[i].name + ": " +
                                 r.status().ToString());
          }
          if (ledger != nullptr) {
            log.ledger.AddTrace(trace.root());
            log.ledger.call_ms += ms;
            log.ledger.query_peak_mb =
                std::max(log.ledger.query_peak_mb,
                         static_cast<double>(peak.peak()) / 1048576);
          }
        }
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  start = NowNs();
  for (auto& t : clients) t.join();
  Measured m;
  m.window_ms = MsSince(start);
  m.cpu_ms = CpuMs() - cpu0;
  m.peak_rss_mb = PeakRssMb();
  sampling = false;
  if (sampler.joinable()) sampler.join();

  for (int c = 0; c < kClients; ++c) {
    ClientLog& log = logs[c];
    for (const std::string& e : log.errors) {
      std::cerr << "perfbench: failed call: client " << c << ": " << e << "\n";
    }
    m.call_ms.insert(m.call_ms.end(), log.call_ms.begin(), log.call_ms.end());
    for (size_t j = 0; j < log.calls.size(); ++j) {
      const Call& call = log.calls[j];
      const std::string& name = sources[call.source].name;
      m.source_ms[name].push_back(log.call_ms[j]);
      ++m.attempted;
      if (call.result == nullptr) {
        ++m.errors;
      } else if (!ctx.oracle.Check(
                     name, ctx.variants[call.source][call.variant],
                     *call.result)) {
        ++m.wrong;
      }
    }
    if (ledger != nullptr) ledger->Merge(log.ledger);
  }
  // A client's sweep time depends on how often it wins an admission slot,
  // so the pass time is the window's mean sweep time, not a per-sweep
  // median.
  m.passes = static_cast<double>(m.call_ms.size()) / static_cast<double>(n);
  m.pass_ms = {m.window_ms * kClients / std::max(m.passes, 1.0)};
  return m;
}

Measured Measure(Context& ctx, double seconds, uint64_t first_pass,
                 Ledger* ledger, double* queue_depth_max) {
  const int min_passes = ctx.smoke ? 1 : 2;
  if (ctx.spec.name == "serve_prepared") {
    return ServeLoop(ctx, seconds, min_passes, ledger, queue_depth_max);
  }
  return ClosedLoop(ctx, seconds, min_passes, first_pass, ledger);
}

// ------------------------------------------------------------------ setup

/// One set-up: a fresh database, data generation and load, and the warm-up:
/// one call of every source, so that the measured calls of analytics and
/// serve_prepared are plan-cache hits on warm operators (serve through
/// PREPARE, whose skeleton key every date variant shares).
Status SetUpOnce(Context& ctx) {
  ctx.mgr.reset();
  ctx.session.reset();
  ctx.db.reset();
  ctx.db = std::make_shared<pytond::engine::Database>();
  const uint64_t p0 = NowNs();
  PYTOND_RETURN_IF_ERROR(Populate(ctx.db.get(), ctx.spec.sizes, ctx.seed));
  ctx.populate_ms = MsSince(p0);
  ctx.session = std::make_unique<Session>(ctx.db);
  std::unique_ptr<pytond::serve::Connection> conn;
  if (ctx.spec.name == "serve_prepared") {
    pytond::serve::ServeConfig config;
    config.max_in_flight = 2;
    config.max_queue = 64;
    config.queue_timeout_ms = 600000;
    ctx.mgr = std::make_unique<pytond::serve::ConnectionManager>(ctx.db,
                                                                 config);
    conn = ctx.mgr->Connect();
  }
  for (const Source& s : ctx.spec.sources) {
    Result<TablePtr> r = conn ? conn->Run(s.text, ctx.options)
                              : ctx.session->Run(s.text, ctx.options);
    if (!r.ok()) {
      return Status::Internal(s.name + ": " + r.status().ToString());
    }
  }
  return Status::OK();
}

Status SetUp(Context& ctx) {
  std::vector<double> times;
  for (int rep = 0; rep < ctx.spec.setup_reps; ++rep) {
    const uint64_t t0 = NowNs();
    PYTOND_RETURN_IF_ERROR(SetUpOnce(ctx));
    times.push_back(MsSince(t0) / 1e3);
  }
  ctx.setup_s = Median(times);
  return Status::OK();
}

Status BuildOracle(Context& ctx) {
  const auto& sources = ctx.spec.sources;
  if (ctx.spec.name == "serve_prepared") {
    ctx.variants.assign(sources.size(), {});
    for (size_t i = 0; i < sources.size(); ++i) {
      for (int k = 0; k < kServeVariants; ++k) {
        // Shifts 0, 9, 18 plus the seed: the first variant of a seed is
        // the source as written when seed % 28 == 0.
        const int shift = static_cast<int>((ctx.seed + 9 * k) % 28);
        ctx.variants[i].push_back(ShiftDates(sources[i].text, shift));
        PYTOND_RETURN_IF_ERROR(ctx.oracle.Add(*ctx.session, sources[i].name,
                                              ctx.variants[i].back()));
      }
    }
    return Status::OK();
  }
  for (const Source& s : sources) {
    PYTOND_RETURN_IF_ERROR(ctx.oracle.Add(*ctx.session, s.name, s.text));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- metrics

std::vector<Metric> EndToEnd(const Context& ctx, const Measured& m) {
  const bool serve = ctx.spec.name == "serve_prepared";
  std::vector<double> medians;
  for (const auto& [name, v] : m.source_ms) medians.push_back(Median(v));
  const double passes = std::max(m.passes, 1.0);
  const double failed = static_cast<double>(m.errors + m.wrong);
  const double attempted = static_cast<double>(std::max<uint64_t>(
      m.attempted, 1));
  double busy_ms = 0;
  for (double x : m.call_ms) busy_ms += x;
  // Closed-loop single caller: completed calls over the time spent in
  // them. Serve: completed calls over the whole client window.
  const double qps_window = serve ? m.window_ms : busy_ms;
  return {
      {"setup_s", ctx.setup_s, "s"},
      {"pass_ms", Median(m.pass_ms), "ms"},
      {"cpu_ms", m.cpu_ms / passes, "ms"},
      {"query_ms.geomean", Geomean(medians), "ms"},
      {"qps", 1e3 * static_cast<double>(m.call_ms.size()) / qps_window,
       "1/s"},
      {"latency_ms.p50", Quantile(m.call_ms, 0.50), "ms"},
      {"latency_ms.p90", Quantile(m.call_ms, 0.90), "ms"},
      {"ok_ratio", (attempted - failed) / attempted, "ratio"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
}

struct SchedSnapshot {
  double busy_ms = 0;
  double tasks = 0;
  double steals = 0;
  double workers = 0;
};

SchedSnapshot ReadSched(pytond::engine::Database& db) {
  const pytond::obs::MetricsSnapshot snap = db.StatsSnapshot();
  SchedSnapshot s;
  for (const auto& [name, v] : snap.gauges) {
    if (name.rfind("tond_sched_worker_busy_ns", 0) == 0) {
      s.busy_ms += static_cast<double>(v) / 1e6;
    } else if (name.rfind("tond_sched_worker_tasks", 0) == 0) {
      s.tasks += static_cast<double>(v);
    }
  }
  s.steals = static_cast<double>(snap.GaugeValue("tond_sched_steals"));
  s.workers = static_cast<double>(snap.GaugeValue("tond_sched_workers"));
  return s;
}

/// Median Session::Prepare ms per source with the plan cache warm (the
/// skeleton-hit path every serve call takes).
double PrepareMs(Context& ctx) {
  std::unique_ptr<pytond::serve::Connection> conn;
  Session* session = ctx.session.get();
  if (ctx.mgr) {
    conn = ctx.mgr->Connect();
    session = &conn->session();
  }
  std::vector<double> v;
  for (const Source& s : ctx.spec.sources) {
    for (int rep = 0; rep < 4; ++rep) {
      const uint64_t t0 = NowNs();
      auto ps = session->Prepare(s.text, ctx.options);
      const double ms = MsSince(t0);
      if (ps.ok() && rep > 0) v.push_back(ms);
    }
  }
  return Median(v);
}

int RunBenchmark(const std::string& workload, uint64_t seed, double seconds,
                 bool traced, bool smoke) {
  std::optional<WorkloadSpec> spec = MakeSpec(workload, smoke);
  if (!spec) {
    std::cerr << "perfbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  const std::vector<Metric> host = HostFingerprint(smoke);
  std::cout << "host " << MetricsJson(host) << "\n";

  Context ctx;
  ctx.spec = std::move(*spec);
  ctx.seed = seed;
  ctx.smoke = smoke;
  ctx.options.num_threads = ctx.spec.num_threads;
  ctx.options.optimization_level = 4;
  ctx.options.profile = pytond::engine::BackendProfile::kVectorized;
  ctx.options.use_plan_cache = true;

  Status st = SetUp(ctx);
  if (!st.ok()) {
    std::cerr << "perfbench: setup failed: " << st.ToString() << "\n";
    return 1;
  }
  st = BuildOracle(ctx);
  if (!st.ok()) {
    std::cerr << "perfbench: " << st.ToString() << "\n";
    return 1;
  }

  ResetPeakRss();
  if (!traced) {
    const Measured m = Measure(ctx, seconds, 0, nullptr, nullptr);
    std::cerr << "perfbench: pass ms";
    for (double p : m.pass_ms) std::cerr << " " << FormatNumber(p);
    std::cerr << "\n";
    const uint64_t failed = m.errors + m.wrong;
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << m.attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << MetricsJson(EndToEnd(ctx, m)) << "}\n";
    return 0;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half whose span trees and counter deltas give the per-layer figures.
  const Measured plain = Measure(ctx, seconds / 2, 0, nullptr, nullptr);
  auto& metrics = ctx.db->metrics();
  const pytond::PlanCacheStats cache0 = CacheStats(ctx);
  const pytond::obs::HistogramSnapshot wait0 =
      metrics.histogram("tond_serve_wait_ns").Snapshot();
  const uint64_t fallback0 =
      metrics.counter("tond_serve_param_fallback_total").Value();
  const uint64_t prepared0 =
      metrics.counter("tond_serve_prepared_hits_total").Value() +
      metrics.counter("tond_serve_prepared_misses_total").Value();
  const pytond::serve::ServeStats serve0 =
      ctx.mgr ? ctx.mgr->stats() : pytond::serve::ServeStats{};
  const SchedSnapshot sched0 = ReadSched(*ctx.db);

  Ledger ledger;
  double queue_depth_max = 0;
  const Measured traced_m = Measure(ctx, seconds / 2, plain.pass_ms.size() + 1,
                                    &ledger, &queue_depth_max);

  const SchedSnapshot sched1 = ReadSched(*ctx.db);
  const pytond::PlanCacheStats cache1 = CacheStats(ctx);
  const pytond::obs::HistogramSnapshot wait =
      metrics.histogram("tond_serve_wait_ns").Snapshot().DeltaSince(wait0);
  const double fallbacks = static_cast<double>(
      metrics.counter("tond_serve_param_fallback_total").Value() - fallback0);
  const double prepares = static_cast<double>(
      metrics.counter("tond_serve_prepared_hits_total").Value() +
      metrics.counter("tond_serve_prepared_misses_total").Value() -
      prepared0);
  const pytond::serve::ServeStats serve1 =
      ctx.mgr ? ctx.mgr->stats() : pytond::serve::ServeStats{};
  const double prepare_ms = PrepareMs(ctx);

  const double passes = std::max(traced_m.passes, 1.0);
  auto per_pass = [&](const std::string& key) {
    auto it = ledger.ms.find(key);
    return it == ledger.ms.end() ? 0.0 : it->second / passes;
  };
  // Serve calls also wait for admission; that wait is measured by the
  // program's own histogram and belongs to the serve layer.
  const double wait_ms = static_cast<double>(wait.sum) / 1e6;
  const double unattributed =
      std::max(0.0, ledger.call_ms - ledger.attributed_ms - wait_ms) / passes;
  const double traced_pass = ledger.call_ms / passes;
  if (traced_pass > 0 && unattributed > kUnattributedBound * traced_pass) {
    std::cerr << "perfbench: unattributed " << unattributed << " ms of a "
              << traced_pass << " ms traced pass exceeds the "
              << kUnattributedBound * 100 << "% bound\n";
  }
  const double frontend_compile = per_pass("frontend.compile_ms");
  const double cache_calls = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  const double busy = sched1.busy_ms - sched0.busy_ms;

  std::vector<Metric> out = {
      {"frontend.compile_ms", frontend_compile, "ms"},
      {"frontend.parse_ms", per_pass("frontend.parse_ms"), "ms"},
      {"frontend.anf_ms", per_pass("frontend.anf_ms"), "ms"},
      {"frontend.analyze_ms", per_pass("frontend.analyze_ms"), "ms"},
      {"frontend.translate_ms", per_pass("frontend.translate_ms"), "ms"},
      {"tondir.verify_ms", per_pass("tondir.verify_ms"), "ms"},
      {"optimizer.optimize_ms", per_pass("optimizer.optimize_ms"), "ms"},
      {"optimizer.pass_runs", ledger.pass_runs / passes, "count"},
      {"optimizer.passes_changed", ledger.passes_changed / passes, "count"},
      {"optimizer.fire_ratio",
       ledger.pass_runs > 0 ? ledger.passes_changed / ledger.pass_runs : 0,
       "ratio"},
      {"sqlgen.sqlgen_ms", per_pass("sqlgen.sqlgen_ms"), "ms"},
      {"core.plan_cache.hit_ratio",
       cache_calls > 0
           ? static_cast<double>(cache1.hits - cache0.hits) / cache_calls
           : 0,
       "ratio"},
      {"core.plan_cache.entries", static_cast<double>(cache1.entries),
       "count"},
      {"core.prepare_ms", prepare_ms, "ms"},
      {"engine.parse_sql_ms", per_pass("engine.parse_sql_ms"), "ms"},
      {"engine.bind_ms", per_pass("engine.bind_ms"), "ms"},
      {"engine.plan_tuning_ms", per_pass("engine.plan_tuning_ms"), "ms"},
      {"engine.exec_ms", per_pass("engine.exec_ms"), "ms"},
  };
  for (const char* op : {"HashJoin", "Aggregate", "Filter", "Scan", "Project",
                         "Sort", "Window", "CrossJoin", "other"}) {
    const std::string key = std::string("engine.op.") + op + ".self_ms";
    out.push_back({key, per_pass(key), "ms"});
  }
  out.push_back({"engine.pipelines", ledger.pipelines / passes, "count"});
  out.push_back({"engine.morsels", ledger.morsels / passes, "count"});
  out.push_back({"engine.mem.query_peak_mb", ledger.query_peak_mb, "MB"});
  out.push_back({"sched.busy_ms", busy / passes, "ms"});
  out.push_back({"sched.tasks", (sched1.tasks - sched0.tasks) / passes,
                 "count"});
  out.push_back({"sched.steals", (sched1.steals - sched0.steals) / passes,
                 "count"});
  out.push_back({"sched.utilization",
                 sched1.workers > 0 && traced_m.window_ms > 0
                     ? busy / (sched1.workers * traced_m.window_ms)
                     : 0,
                 "ratio"});
  out.push_back({"serve.admit_wait_ms.p50", wait.Quantile(0.50) / 1e6, "ms"});
  out.push_back({"serve.admit_wait_ms.p99", wait.Quantile(0.99) / 1e6, "ms"});
  out.push_back({"serve.latency_ms.p99",
                 ctx.mgr ? Quantile(traced_m.call_ms, 0.99) : 0, "ms"});
  out.push_back({"serve.queue_depth.max", queue_depth_max, "count"});
  out.push_back(
      {"serve.rejected",
       static_cast<double>(
           (serve1.rejected_queue_full + serve1.rejected_timeout +
            serve1.rejected_memory) -
           (serve0.rejected_queue_full + serve0.rejected_timeout +
            serve0.rejected_memory)),
       "count"});
  out.push_back({"serve.param_fallback_ratio",
                 prepares > 0 ? fallbacks / prepares : 0, "ratio"});
  out.push_back({"storage.populate_ms", ctx.populate_ms, "ms"});
  std::vector<double> speedups;
  for (const auto& [name, eager] : ctx.oracle.eager_ms()) {
    auto it = plain.source_ms.find(name);
    if (it != plain.source_ms.end()) {
      speedups.push_back(eager / std::max(Median(it->second), 1e-6));
    }
  }
  out.push_back({"runtime.eager_ms", ctx.oracle.total_ms(), "ms"});
  out.push_back({"runtime.speedup_vs_eager.geomean", Geomean(speedups), "x"});
  const double plain_pass = Median(plain.pass_ms);
  out.push_back({"obs.trace_overhead_ratio",
                 plain_pass > 0 ? Median(traced_m.pass_ms) / plain_pass : 0,
                 "ratio"});
  out.push_back({"obs.unattributed_ms", unattributed, "ms"});
  out.push_back({"obs.unattributed_ratio",
                 traced_pass > 0 ? unattributed / traced_pass : 0, "ratio"});
  for (const Source& s : AllSources()) {
    auto it = plain.source_ms.find(s.name);
    out.push_back({"query." + s.name + ".ms",
                   it == plain.source_ms.end() ? 0 : Median(it->second),
                   "ms"});
  }
  for (const Metric& h : host) out.push_back(h);

  const uint64_t attempted = plain.attempted + traced_m.attempted;
  const uint64_t failed =
      plain.errors + plain.wrong + traced_m.errors + traced_m.wrong;
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(out) << "}\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: perfbench --workload analytics|adhoc_compile|"
               "serve_prepared --seed N --seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "perfbench: unknown argument '" << arg << "'\n";
      return Usage();
    }
  }
  if (workload.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  return RunBenchmark(workload, seed, seconds, trace == 1, smoke);
}
