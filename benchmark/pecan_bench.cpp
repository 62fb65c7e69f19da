// The repo benchmark: end-to-end and per-layer numbers for the PECAN serving
// stack, driven only through the library's public API.
//
//   pecan_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --work-dir <dir>
//
// Workloads (why each exists is in benchmark/README.md and BENCHMARK.json):
//   lenet-batch   closed loop, 1 caller: Engine::forward_batch at N=64,
//                 round-robin over LeNet5-D CAM f32/int8/binary + LeNet5-A
//                 CAM f32.
//   resnet-batch  closed loop, 1 caller: ResNet20-D CAM int8 at N=4.
//   wire-infer    open loop: Poisson single-sample INFER frames over one
//                 pipelined loopback connection to a self-hosted NetServer
//                 (LeNet5-D CAM int8), plus a fixed rate ladder.
//   wire-swap     wire-infer's nominal traffic plus a DEPLOY hot-swap and
//                 STATS polls at fixed intervals on a control connection.
//
// --trace 0 runs the untraced end-to-end measurement; --trace 1 runs the
// separate traced run that gives the per-layer numbers (per-step times on
// one kernel lane, a CAM phase replay from the public kernels, in-process
// Server timings, wire codec costs). Every output is checked bitwise
// against a golden computed once at setup, one sample at a time.
//
// Output: human-readable `metric`/`env` lines, then ONE final JSON line
// {"correct", "attempted", "failed", "metrics"} holding every metric. The
// exit code is 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cam/cam_conv2d.hpp"
#include "core/pecan_conv2d.hpp"
#include "core/pecan_linear.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/im2col.hpp"
#include "nn/residual.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "runtime/wire.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pecan;
using Clock = std::chrono::steady_clock;
using cam::CamPrecision;

// ----------------------------------------------------------------- constants
// Fixed by the benchmark, never derived from a measurement of the code under
// test. BENCHMARK.json's workload lines repeat the load constants.

// Kernel lanes of the untraced runs. The batch workloads shard each batch
// over two lanes. The wire workloads serve N=1 requests, which gain nothing
// from a second lane but pay a fork/join wake-up per CAM layer for it; on a
// shared VM those wake-ups dominate the run-to-run spread of wire latency.
constexpr int kBatchLanes = 2;
constexpr int kWireLanes = 1;
constexpr int kTraceLanes = 1;      ///< traced run: one lane, engine unsharded
constexpr int kExecutors = 2;       ///< NetServer executor threads
constexpr int kSetupReps = 11;      ///< set-ups per run; setup_s is their median
constexpr std::uint64_t kModelSeed = 0x5EC0DE;  ///< random-init weights

constexpr std::int64_t kLenetBatch = 64;
constexpr std::int64_t kLenetPoolBatches = 4;
// N=4 rather than 8: about 130 rounds in a 20 s run, so the p90 has more
// than ten samples beyond it. Each sample still runs full 64-wide tiles.
constexpr std::int64_t kResnetBatch = 4;
constexpr std::int64_t kResnetPoolBatches = 4;
constexpr std::int64_t kWirePool = 256;

constexpr double kNominalRps = 400.0;                    ///< wire-infer / wire-swap
constexpr double kLadderRps[] = {400.0, 600.0, 800.0, 1000.0};
constexpr double kPeakRps = 800.0;                       ///< near-knee rate
constexpr double kP99LimitMs = 10.0;                     ///< SLO for max_rps_at_slo
constexpr double kDeployEveryMs = 1000.0;                ///< wire-swap DEPLOY period
constexpr double kStatsEveryMs = 100.0;                  ///< wire-swap STATS period

// Share of --seconds spent in each phase.
constexpr double kWireNominalShare = 0.6;  ///< wire-infer: nominal segment
constexpr double kWireRungShare = 0.075;   ///< wire-infer: each ladder rung
constexpr double kWirePeakShare = 0.1;     ///< wire-infer: peak segment
constexpr double kTraceWalkShare = 0.55;   ///< traced run: one-lane step trace + replay
constexpr double kTraceServeShare = 0.2;   ///< traced run: in-process Server pass
constexpr double kTraceWireShare = 0.2;    ///< traced run (wire): wire pass

const char* const kWireModel = "d_int8";

// ------------------------------------------------------------------- helpers

double ms_since(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Clock::duration seconds_dur(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Sleeps until shortly before `due`, then spins: a sleeping sender wakes
/// ~0.1 ms late on a shared VM, and that lateness would count as latency.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

bool rows_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

/// Samples [first, first + count) of an NCHW tensor as a new [count, ...] tensor.
Tensor slice_samples(const Tensor& all, std::int64_t first, std::int64_t count) {
  Shape shape = all.shape();
  const std::int64_t per = all.numel() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::copy(all.data() + first * per, all.data() + (first + count) * per, out.data());
  return out;
}

// -------------------------------------------------------------------- report

/// Collects metrics and check outcomes; prints them at the end.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {}) {
    if (!std::isfinite(value)) fail("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
    std::printf("metric %-40s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  void env(const std::string& key, const std::string& value) {
    std::printf("env    %-40s %s\n", key.c_str(), value.c_str());
  }
  /// One checked operation; `ok` false counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void count_attempts(std::uint64_t n) { attempted_ += n; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void print_json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Prints `<prefix>.p50/p99` style percentile lines with their sample count.
void latency_lines(Report& rep, const std::string& name, const std::vector<double>& v,
                   const std::vector<std::pair<const char*, double>>& qs) {
  const std::string note = "(n=" + std::to_string(v.size()) + ")";
  for (const auto& [suffix, q] : qs) rep.metric(name + suffix, percentile(v, q), "ms", note);
}

// ----------------------------------------------------------- models + setup

struct EngineSpec {
  std::string name;      ///< metric prefix and Server model name, e.g. "d_int8"
  std::string artifact;  ///< artifact file stem
  CamPrecision precision;
};

std::string artifact_path(const std::string& work_dir, const std::string& stem) {
  return (std::filesystem::path(work_dir) / (stem + ".pecan")).string();
}

/// Writes the seeded random-init artifacts a workload deploys.
void save_artifacts(const std::string& work_dir, const std::vector<EngineSpec>& specs) {
  std::filesystem::create_directories(work_dir);
  for (const EngineSpec& spec : specs) {
    const std::string path = artifact_path(work_dir, spec.artifact);
    Rng rng(kModelSeed);
    if (spec.artifact == "lenet5_d" || spec.artifact == "lenet5_a") {
      const auto variant =
          spec.artifact == "lenet5_d" ? models::Variant::PecanD : models::Variant::PecanA;
      auto net = models::make_lenet5(variant, rng);
      runtime::save_artifact(path, runtime::make_artifact("lenet5", variant, 10, *net));
    } else if (spec.artifact == "resnet20_d") {
      auto net = models::make_resnet20(models::Variant::PecanD, 10, rng);
      runtime::save_artifact(
          path, runtime::make_artifact("resnet20", models::Variant::PecanD, 10, *net));
    } else {
      throw std::invalid_argument("unknown artifact " + spec.artifact);
    }
  }
}

runtime::EngineConfig engine_config(CamPrecision precision) {
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  config.cam_precision = precision;
  return config;
}

struct SetupTimes {
  std::vector<double> total_s, load_ms, deploy_ms;  ///< one entry per rep
};

/// load_artifact + Server::deploy of every spec into `server`; appends this
/// rep's timings (load/deploy summed over the specs).
void deploy_all(runtime::Server& server, const std::string& work_dir,
                const std::vector<EngineSpec>& specs, SetupTimes& times) {
  double load = 0, deploy = 0;
  for (const EngineSpec& spec : specs) {
    const auto t0 = Clock::now();
    const runtime::ModelArtifact artifact =
        runtime::load_artifact(artifact_path(work_dir, spec.artifact));
    const auto t1 = Clock::now();
    server.deploy(spec.name, artifact, engine_config(spec.precision));
    load += ms_since(t0, t1);
    deploy += ms_since(t1);
  }
  times.load_ms.push_back(load);
  times.deploy_ms.push_back(deploy);
}

void setup_metrics(Report& rep, const SetupTimes& times, bool trace) {
  if (!trace) {
    rep.metric("setup_s", median(times.total_s), "s",
               "(median of " + std::to_string(times.total_s.size()) + " set-ups)");
  } else {
    rep.metric("artifact.load_ms", median(times.load_ms), "ms");
    rep.metric("engine.compile_ms", median(times.deploy_ms), "ms");
  }
}

// ------------------------------------------------------------------- golden

ops::OpTotals diff(const ops::OpTotals& a, const ops::OpTotals& b) {
  ops::OpTotals d;
  d.adds = a.adds - b.adds;
  d.muls = a.muls - b.muls;
  d.cam_searches = a.cam_searches - b.cam_searches;
  d.lut_reads = a.lut_reads - b.lut_reads;
  d.adds_q = a.adds_q - b.adds_q;
  d.muls_q = a.muls_q - b.muls_q;
  d.xor_popcounts = a.xor_popcounts - b.xor_popcounts;
  return d;
}

/// Golden logits computed once, one sample at a time: rows[i] for sample i.
struct Golden {
  std::int64_t classes = 0;
  std::vector<float> rows;
  const float* row(std::int64_t i) const { return rows.data() + i * classes; }
};

/// Runs every sample of `pool` alone through `engine`, and returns the exact
/// op-ledger delta of that pass in `ops`.
Golden compute_golden(runtime::Engine& engine, const Tensor& pool, ops::OpTotals& ops) {
  Golden g;
  const ops::OpTotals before = engine.counter()->totals();
  for (std::int64_t i = 0; i < pool.dim(0); ++i) {
    const Tensor out = engine.forward_batch(slice_samples(pool, i, 1));
    if (g.classes == 0) {
      g.classes = out.numel();
      g.rows.resize(static_cast<std::size_t>(pool.dim(0) * g.classes));
    }
    std::copy(out.data(), out.data() + g.classes, g.rows.data() + i * g.classes);
  }
  ops = diff(engine.counter()->totals(), before);
  return g;
}

/// Checks every row of `out`, a forward of pool samples [first, first + rows).
void check_rows(Report& rep, const Tensor& out, const Golden& g, std::int64_t first,
                std::int64_t rows, const std::string& who) {
  if (out.numel() != rows * g.classes) {
    rep.check(false, who + ": output has the wrong shape");
    return;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    rep.check(rows_equal(out.data() + r * g.classes, g.row(first + r), g.classes),
              who + ": row " + std::to_string(first + r) + " differs from golden");
  }
}

bool same_totals(const ops::OpTotals& a, const ops::OpTotals& b) {
  return a.adds == b.adds && a.muls == b.muls && a.cam_searches == b.cam_searches &&
         a.lut_reads == b.lut_reads && a.adds_q == b.adds_q && a.muls_q == b.muls_q &&
         a.xor_popcounts == b.xor_popcounts;
}

/// Per-image ledger of one engine, from its golden pass.
struct PerImage {
  double energy_nj = 0, searches = 0, adds = 0, muls = 0, lut_reads = 0;
};

PerImage per_image(const runtime::Engine& engine, const ops::OpTotals& ops, std::int64_t n) {
  const double k = 1.0 / static_cast<double>(n);
  PerImage p;
  p.energy_nj = engine.energy_model().energy(ops).total_pj() / 1e3 * k;
  p.searches = static_cast<double>(ops.cam_searches) * k;
  p.adds = static_cast<double>(ops.adds + ops.adds_q) * k;
  p.muls = static_cast<double>(ops.muls + ops.muls_q) * k;
  p.lut_reads = static_cast<double>(ops.lut_reads) * k;
  return p;
}

// ---------------------------------------------------------------- the trace

enum class StepKind { CamConv, CamFc, Other };

/// Per-step wall times of one traced forward, in first-seen order.
struct StepTimes {
  std::vector<std::string> names;
  std::vector<StepKind> kinds;
  std::vector<double> ms;
  void add(const std::string& name, StepKind kind, double t) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        ms[i] += t;
        return;
      }
    }
    names.push_back(name);
    kinds.push_back(kind);
    ms.push_back(t);
  }
};

/// One CAM layer as the replay needs it: the exported layer, the geometry
/// of its trained twin, and the input recorded during a traced forward.
struct CamCapture {
  cam::CamConv2d* layer = nullptr;
  const pq::PecanConv2d* trained = nullptr;
  Tensor input;              ///< NCHW (FC inputs reshaped to [N, F, 1, 1])
  ops::OpTotals own_delta;   ///< the layer's own ledger delta for that forward
};

/// Walks an exported network step by step with Module::infer, timing each
/// step. CAM layers (CamConv2d / CamLinear) get their own rows; inside a
/// Residual block every non-CAM step, the shortcut and the add + ReLU go to
/// the block's "<block>.rest" row.
class Tracer {
 public:
  Tracer(runtime::Engine& engine, nn::Module& trained)
      : engine_(engine), counter_(*engine.counter()) {
    index_trained(trained);
  }

  /// One traced forward. With `captures` set, records each CAM layer's input
  /// and its own op-ledger delta (kernels must run on one lane).
  Tensor run(const Tensor& batch, StepTimes& times, std::vector<CamCapture>* captures) {
    ctx_.reset();
    captures_ = captures;
    if (captures_) captures_->clear();
    return walk(*engine_.cam_export().net, batch, times, {});
  }

 private:
  void index_trained(nn::Module& m) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
      for (std::size_t i = 0; i < seq->size(); ++i) index_trained(seq->layer(i));
    } else if (auto* res = dynamic_cast<nn::Residual*>(&m)) {
      index_trained(res->main());
      index_trained(res->shortcut());
    } else if (const auto* conv = dynamic_cast<const pq::PecanConv2d*>(&m)) {
      trained_[conv->name() + ".cam"] = conv;
    } else if (const auto* fc = dynamic_cast<const pq::PecanLinear*>(&m)) {
      trained_[fc->conv().name() + ".cam"] = &fc->conv();
    }
  }

  Tensor walk(nn::Module& m, const Tensor& x, StepTimes& times, const std::string& bucket) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
      Tensor y = x;
      for (std::size_t i = 0; i < seq->size(); ++i) y = walk(seq->layer(i), y, times, bucket);
      return y;
    }
    if (auto* res = dynamic_cast<nn::Residual*>(&m)) {
      const std::string rest = res->name() + ".rest";
      Tensor main_out = walk(res->main(), x, times, rest);
      const auto t0 = Clock::now();
      const Tensor short_out = res->shortcut().infer(x, ctx_);
      add_(main_out, short_out);
      if (res->relu_after()) {
        for (std::int64_t i = 0; i < main_out.numel(); ++i) {
          if (main_out[i] < 0.f) main_out[i] = 0.f;
        }
      }
      times.add(rest, StepKind::Other, ms_since(t0));
      return main_out;
    }
    cam::CamConv2d* cam_layer = nullptr;
    StepKind kind = StepKind::Other;
    if (auto* fc = dynamic_cast<cam::CamLinear*>(&m)) {
      cam_layer = &fc->conv();
      kind = StepKind::CamFc;
    } else if (auto* conv = dynamic_cast<cam::CamConv2d*>(&m)) {
      cam_layer = conv;
      kind = StepKind::CamConv;
    }
    const ops::OpTotals before = counter_.totals();
    const auto t0 = Clock::now();
    Tensor y = m.infer(x, ctx_);
    const double t = ms_since(t0);
    times.add(kind == StepKind::Other && !bucket.empty() ? bucket : m.name(), kind, t);
    if (cam_layer && captures_) {
      CamCapture cap;
      cap.layer = cam_layer;
      const auto it = trained_.find(cam_layer->name());
      if (it == trained_.end()) throw std::runtime_error("no trained twin for " + m.name());
      cap.trained = it->second;
      cap.input = x.ndim() == 2 ? x.reshaped({x.dim(0), x.dim(1), 1, 1}) : x;
      cap.own_delta = diff(counter_.totals(), before);
      captures_->push_back(std::move(cap));
    }
    return y;
  }

  runtime::Engine& engine_;
  cam::OpCounter& counter_;
  nn::InferContext ctx_;
  std::vector<CamCapture>* captures_ = nullptr;
  std::map<std::string, const pq::PecanConv2d*> trained_;
};

/// Phase split of the CAM layers of one forward.
struct PhaseTimes {
  double gather_ms = 0, search_acc_ms = 0;
};

/// Replays each captured CAM layer's tile loop from the public kernels: the
/// fused im2col_tile gather, then the fused search->accumulate epilogue,
/// counting into the replay's own OpCounter. The replay's op totals must
/// equal the layer's own delta exactly.
PhaseTimes replay(const std::vector<CamCapture>& captures, Report& rep, const std::string& who) {
  PhaseTimes out;
  for (const CamCapture& cap : captures) {
    const cam::CamConv2d& layer = *cap.layer;
    const pq::PecanConv2d& tr = *cap.trained;
    const Tensor& in = cap.input;
    const nn::Conv2dGeometry g{in.dim(1), in.dim(2), in.dim(3), tr.kernel(), tr.stride(),
                               tr.pad()};
    const std::int64_t len = g.cols(), n = in.dim(0), D = layer.groups();
    const std::int64_t d = layer.array(0).word_dim(), p = layer.array(0).word_count();
    const std::int64_t cout = cap.layer->lut(0).cout();
    const CamPrecision eff = layer.effective_precision();
    const bool distance = layer.mode() == pq::MatchMode::Distance;
    const float temperature = tr.config().temperature;
    std::vector<float> qtile(static_cast<std::size_t>(d * cam::kCamTileMax));
    std::vector<float> scores(static_cast<std::size_t>(p * cam::kCamTileMax));
    std::vector<float> result(static_cast<std::size_t>(n * cout * len), 0.f);
    cam::OpCounter counter;
    const std::int64_t image = g.cin * g.hin * g.win;
    for (std::int64_t s = 0; s < n; ++s) {
      float* out_s = result.data() + s * cout * len;
      for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
        const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
        for (std::int64_t j = 0; j < D; ++j) {
          const auto t0 = Clock::now();
          nn::im2col_tile(in.data() + s * image, g, j * d, d, l0, lb, qtile.data());
          const auto t1 = Clock::now();
          const cam::CamArray& array = layer.array(j);
          const cam::LutMemory& lut = cap.layer->lut(j);
          if (distance) {
            array.search_accumulate_block(qtile.data(), lb, lut, out_s + l0, len, counter, eff);
          } else {
            array.similarity_softmax_accumulate_block(qtile.data(), lb, temperature, lut,
                                                      scores.data(), out_s + l0, len, counter,
                                                      eff);
          }
          const auto t2 = Clock::now();
          out.gather_ms += ms_since(t0, t1);
          out.search_acc_ms += ms_since(t1, t2);
        }
      }
    }
    rep.check(same_totals(counter.totals(), cap.own_delta),
              who + ": phase replay op totals differ from " + layer.name() + "'s own ledger");
  }
  return out;
}

/// Per-engine traced-run results: step and phase medians over rounds, plus
/// each round's times. The reconciliation ratios are taken per round, so
/// that a host slowdown hits both sides of a ratio.
struct TraceResult {
  StepTimes steps;  ///< median ms per step
  PhaseTimes phases;
  std::vector<double> untraced_ms, traced_ms, step_sum_ms;  ///< one per round
};

/// After one untimed warm-up round that checks the traced output and
/// captures every CAM layer's input, alternates an untraced forward_batch, a
/// traced walk and a phase replay of `batch` on each engine until
/// `deadline` (at least two timed rounds). Must run with one kernel lane, so
/// that forward_batch runs unsharded.
std::vector<TraceResult> trace_engines(Report& rep, const std::vector<runtime::Engine*>& engines,
                                       const std::vector<nn::Module*>& trained,
                                       const Tensor& batch,
                                       const std::vector<const Golden*>& golden,
                                       const std::vector<EngineSpec>& specs,
                                       Clock::time_point deadline) {
  const std::size_t ne = engines.size();
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<CamCapture>> captures(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    tracers.push_back(std::make_unique<Tracer>(*engines[e], *trained[e]));
    StepTimes warm;
    const Tensor out = tracers[e]->run(batch, warm, &captures[e]);
    check_rows(rep, out, *golden[e], 0, batch.dim(0), specs[e].name + " traced forward");
  }
  std::vector<std::vector<StepTimes>> step_runs(ne);
  std::vector<std::vector<double>> untraced(ne), traced(ne), gather(ne), search(ne);
  for (std::size_t round = 0; round < 2 || Clock::now() < deadline; ++round) {
    for (std::size_t e = 0; e < ne; ++e) {
      // Alternate which of the pair runs first, so neither always runs on
      // caches the other warmed.
      for (int k = 0; k < 2; ++k) {
        const auto t0 = Clock::now();
        if ((k == 0) == (round % 2 == 0)) {
          const Tensor plain = engines[e]->forward_batch(batch);
          untraced[e].push_back(ms_since(t0));
          check_rows(rep, plain, *golden[e], 0, batch.dim(0), specs[e].name + " untraced forward");
        } else {
          StepTimes steps;
          tracers[e]->run(batch, steps, nullptr);
          traced[e].push_back(ms_since(t0));
          step_runs[e].push_back(std::move(steps));
        }
      }

      const PhaseTimes ph = replay(captures[e], rep, specs[e].name);
      gather[e].push_back(ph.gather_ms);
      search[e].push_back(ph.search_acc_ms);
    }
  }
  std::vector<TraceResult> out(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    TraceResult& r = out[e];
    const StepTimes& first = step_runs[e].front();
    r.steps.names = first.names;
    r.steps.kinds = first.kinds;
    for (std::size_t s = 0; s < first.names.size(); ++s) {
      std::vector<double> v;
      for (const StepTimes& run : step_runs[e]) v.push_back(run.ms[s]);
      r.steps.ms.push_back(median(v));
    }
    r.phases = {median(gather[e]), median(search[e])};
    r.untraced_ms = untraced[e];
    r.traced_ms = traced[e];
    for (const StepTimes& run : step_runs[e]) {
      double sum = 0;
      for (double v : run.ms) sum += v;
      r.step_sum_ms.push_back(sum);
    }
  }
  return out;
}

/// Per-step lines per engine plus the per-layer metrics summed over engines.
void trace_metrics(Report& rep, const std::vector<EngineSpec>& specs,
                   const std::vector<TraceResult>& traces, std::int64_t images_per_forward) {
  double by_kind[3] = {0, 0, 0};  // indexed by StepKind
  double gather = 0, search = 0;
  const std::size_t rounds = traces[0].untraced_ms.size();
  std::vector<double> untraced(rounds, 0.0), traced(rounds, 0.0), step_sum(rounds, 0.0);
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const TraceResult& t = traces[e];
    double sum = 0;
    for (double v : t.steps.ms) sum += v;
    for (std::size_t s = 0; s < t.steps.names.size(); ++s) {
      const std::string base = specs[e].name + ".layer." + t.steps.names[s];
      rep.metric(base + ".ms", t.steps.ms[s], "ms");
      rep.metric(base + ".share", sum > 0 ? t.steps.ms[s] / sum : 0.0, "ratio");
      by_kind[static_cast<int>(t.steps.kinds[s])] += t.steps.ms[s];
    }
    rep.metric(specs[e].name + ".cam.gather_ms", t.phases.gather_ms, "ms");
    rep.metric(specs[e].name + ".cam.search_acc_ms", t.phases.search_acc_ms, "ms");
    std::vector<double> ratio;
    for (std::size_t r = 0; r < rounds; ++r) {
      ratio.push_back(t.step_sum_ms[r] / t.untraced_ms[r]);
      untraced[r] += t.untraced_ms[r];
      traced[r] += t.traced_ms[r];
      step_sum[r] += t.step_sum_ms[r];
    }
    rep.metric(specs[e].name + ".trace.sum_over_e2e", median(ratio), "ratio");
    gather += t.phases.gather_ms;
    search += t.phases.search_acc_ms;
  }
  const double conv = by_kind[static_cast<int>(StepKind::CamConv)];
  const double fc = by_kind[static_cast<int>(StepKind::CamFc)];
  const double other = by_kind[static_cast<int>(StepKind::Other)];
  const double total = conv + fc + other;
  const std::string per = "(per forward of " + std::to_string(images_per_forward) +
                          " images, summed over engines, 1 lane)";
  rep.metric("layer.cam_conv.ms", conv, "ms", per);
  rep.metric("layer.cam_fc.ms", fc, "ms", per);
  rep.metric("layer.other.ms", other, "ms", per);
  rep.metric("layer.cam_fc.share", total > 0 ? fc / total : 0.0, "ratio");
  rep.metric("cam.gather_ms", gather, "ms", per);
  rep.metric("cam.search_acc_ms", search, "ms", per);
  std::vector<double> sum_ratio, traced_ratio;
  for (std::size_t r = 0; r < rounds; ++r) {
    sum_ratio.push_back(step_sum[r] / untraced[r]);
    traced_ratio.push_back(traced[r] / untraced[r]);
  }
  const std::string note = "(median over " + std::to_string(rounds) + " paired rounds)";
  rep.metric("trace.sum_over_e2e", median(sum_ratio), "ratio", note);
  rep.metric("trace.overhead", median(traced_ratio) - 1.0, "ratio", note);
}

/// The exact per-image op counts: per engine lines, plus the mean over the
/// workload's engines as the per-layer metrics.
void count_metrics(Report& rep, const std::vector<EngineSpec>& specs,
                   const std::vector<PerImage>& per) {
  PerImage mean;
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const std::string base = specs[e].name + ".cam.";
    rep.metric(base + "searches_per_img", per[e].searches, "count");
    rep.metric(base + "adds_per_img", per[e].adds, "count");
    rep.metric(base + "muls_per_img", per[e].muls, "count");
    rep.metric(base + "lut_reads_per_img", per[e].lut_reads, "count");
    mean.searches += per[e].searches / static_cast<double>(specs.size());
    mean.adds += per[e].adds / static_cast<double>(specs.size());
    mean.muls += per[e].muls / static_cast<double>(specs.size());
    mean.lut_reads += per[e].lut_reads / static_cast<double>(specs.size());
  }
  rep.metric("cam.searches_per_img", mean.searches, "count");
  rep.metric("cam.adds_per_img", mean.adds, "count");
  rep.metric("cam.muls_per_img", mean.muls, "count");
  rep.metric("cam.lut_reads_per_img", mean.lut_reads, "count");
}

/// Energy per image: per engine (lines) and the mean over engines.
void energy_metrics(Report& rep, const std::vector<EngineSpec>& specs,
                    const std::vector<PerImage>& per) {
  double mean = 0;
  for (std::size_t e = 0; e < specs.size(); ++e) {
    rep.metric("energy_nj_per_img." + specs[e].name, per[e].energy_nj, "nJ", "(exact ledger)");
    mean += per[e].energy_nj / static_cast<double>(specs.size());
  }
  rep.metric("energy_nj_per_img", mean, "nJ", "(mean over the workload's engines)");
}

// ----------------------------------------------------------- wire encoding

/// Median µs to encode the request frame of `tensor` and to decode it back.
void codec_metrics(Report& rep, const Tensor& tensor, bool batch_frame, double seconds) {
  const auto op = batch_frame ? runtime::wire::Opcode::InferBatch : runtime::wire::Opcode::Infer;
  std::vector<double> enc, dec;
  std::vector<std::uint8_t> buf;
  const auto deadline = Clock::now() + seconds_dur(seconds);
  std::uint64_t id = 0;
  while (enc.size() < 16 || Clock::now() < deadline) {
    buf.clear();
    const auto t0 = Clock::now();
    runtime::wire::encode_tensor_frame(buf, op, runtime::wire::Status::Ok, ++id, kWireModel,
                                       tensor);
    const auto t1 = Clock::now();
    runtime::wire::Decoder decoder;
    decoder.feed(buf.data(), buf.size());
    runtime::wire::FrameView frame;
    const bool framed = decoder.next(frame) == runtime::wire::Decoder::Result::Frame;
    std::uint8_t priority = 0;
    std::uint32_t deadline_ms = 0;
    const Tensor back =
        framed ? runtime::wire::decode_tensor_request(frame.payload, frame.payload_len, priority,
                                                      deadline_ms)
               : Tensor();
    const auto t2 = Clock::now();
    enc.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    dec.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    if (enc.size() == 1) {
      rep.check(framed && back.numel() == tensor.numel() &&
                    rows_equal(back.data(), tensor.data(), tensor.numel()),
                "wire codec round trip differs");
    }
  }
  const std::string note = "(median of " + std::to_string(enc.size()) + ")";
  rep.metric("wire.encode_us", median(enc), "us", note);
  rep.metric("wire.decode_us", median(dec), "us", note);
}

// ------------------------------------------------------------ batch workloads

struct BatchWorkload {
  std::vector<EngineSpec> specs;
  data::SyntheticSpec data;
  std::int64_t batch = 0, pool_batches = 0;
};

BatchWorkload lenet_batch() {
  return {{{"d_f32", "lenet5_d", CamPrecision::Float32},
           {"d_int8", "lenet5_d", CamPrecision::Int8},
           {"d_binary", "lenet5_d", CamPrecision::Binary},
           {"a_f32", "lenet5_a", CamPrecision::Float32}},
          data::mnist_like_spec(),
          kLenetBatch,
          kLenetPoolBatches};
}

BatchWorkload resnet_batch() {
  return {{{"d_int8", "resnet20_d", CamPrecision::Int8}},
          data::cifar10_like_spec(),
          kResnetBatch,
          kResnetPoolBatches};
}

void run_batch(Report& rep, const BatchWorkload& w, std::uint64_t seed, double seconds,
               bool trace, const std::string& work_dir) {
  util::set_global_threads(kBatchLanes);
  save_artifacts(work_dir, w.specs);

  SetupTimes setup;
  std::unique_ptr<runtime::Server> server;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<runtime::Server>();
    deploy_all(*server, work_dir, w.specs, setup);
    setup.total_s.push_back(ms_since(t0) / 1e3);
  }

  data::SyntheticSpec spec = w.data;
  spec.seed = seed;
  const Tensor pool = data::generate(spec, w.batch * w.pool_batches).images;
  std::vector<Tensor> batches;
  for (std::int64_t b = 0; b < w.pool_batches; ++b) {
    batches.push_back(slice_samples(pool, b * w.batch, w.batch));
  }

  const std::size_t ne = w.specs.size();
  std::vector<std::shared_ptr<runtime::Engine>> engines;
  std::vector<Golden> golden(ne);
  std::vector<PerImage> per(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    engines.push_back(server->lease(w.specs[e].name));
    ops::OpTotals ops;
    golden[e] = compute_golden(*engines[e], pool, ops);
    per[e] = per_image(*engines[e], ops, pool.dim(0));
    if (w.specs[e].artifact != "lenet5_a") {
      rep.check(ops.muls == 0 && ops.muls_q == 0,
                w.specs[e].name + ": PECAN-D engine reported multiplications");
    }
  }

  rep.env("workload.batch", std::to_string(w.batch));
  rep.env("workload.loop", "closed, 1 caller, round-robin over " + std::to_string(ne) +
                               " engine(s)");

  if (!trace) {
    setup_metrics(rep, setup, false);
    // Rates come from median call times, so a stall of the shared machine
    // moves one sample instead of the whole rate.
    std::vector<double> round_ms;
    std::vector<std::vector<double>> call_ms(ne);
    const auto deadline = Clock::now() + seconds_dur(seconds);
    for (std::int64_t it = 0; Clock::now() < deadline; ++it) {
      const std::int64_t b = it % w.pool_batches;
      const auto r0 = Clock::now();
      for (std::size_t e = 0; e < ne; ++e) {
        const auto t0 = Clock::now();
        const Tensor out = engines[e]->forward_batch(batches[b]);
        call_ms[e].push_back(ms_since(t0));
        check_rows(rep, out, golden[e], b * w.batch, w.batch, w.specs[e].name);
      }
      round_ms.push_back(ms_since(r0));
    }
    const std::string per_call = "(N=" + std::to_string(w.batch) + " over the median call, n=" +
                                 std::to_string(round_ms.size()) + ")";
    rep.metric("img_per_s",
               static_cast<double>(w.batch * static_cast<std::int64_t>(ne)) * 1e3 /
                   median(round_ms),
               "img/s", per_call);
    for (std::size_t e = 0; e < ne; ++e) {
      rep.metric("img_per_s." + w.specs[e].name,
                 static_cast<double>(w.batch) * 1e3 / median(call_ms[e]), "img/s", per_call);
    }
    latency_lines(rep, "", round_ms, {{"p25_ms", 0.25}, {"p50_ms", 0.5}, {"p90_ms", 0.9}});
    energy_metrics(rep, w.specs, per);
  } else {
    setup_metrics(rep, setup, true);
    count_metrics(rep, w.specs, per);
    // One lane: forward_batch runs unsharded, so the step sum reconciles
    // against it directly.
    util::set_global_threads(kTraceLanes);
    std::vector<runtime::Engine*> raw;
    std::vector<std::unique_ptr<nn::Sequential>> trained_nets;
    std::vector<nn::Module*> trained;
    std::vector<const Golden*> golden_of;
    for (std::size_t e = 0; e < ne; ++e) {
      raw.push_back(engines[e].get());
      trained_nets.push_back(runtime::build_network(
          runtime::load_artifact(artifact_path(work_dir, w.specs[e].artifact))));
      trained.push_back(trained_nets.back().get());
      golden_of.push_back(&golden[e]);
    }
    const auto trace_deadline = Clock::now() + seconds_dur(seconds * kTraceWalkShare);
    const auto traces =
        trace_engines(rep, raw, trained, batches[0], golden_of, w.specs, trace_deadline);
    trace_metrics(rep, w.specs, traces, w.batch);

    // The same closed loop driven through Server::forward_batch at the
    // untraced lane count: what the serving layer reports about it.
    util::set_global_threads(kBatchLanes);
    std::vector<runtime::ModelServerStats> before;
    for (const EngineSpec& s : w.specs) before.push_back(server->stats(s.name));
    std::vector<double> request_ms;
    const auto serve_deadline = Clock::now() + seconds_dur(seconds * kTraceServeShare);
    for (std::int64_t it = 0; it < 2 || Clock::now() < serve_deadline; ++it) {
      const std::int64_t b = it % w.pool_batches;
      for (std::size_t e = 0; e < ne; ++e) {
        const auto t0 = Clock::now();
        const Tensor out = server->forward_batch(w.specs[e].name, batches[b]);
        request_ms.push_back(ms_since(t0));
        check_rows(rep, out, golden[e], b * w.batch, w.batch, w.specs[e].name + " via Server");
      }
    }
    std::uint64_t samples = 0, batches_run = 0, shed = 0, expired = 0;
    std::int64_t peak = 0;
    for (std::size_t e = 0; e < ne; ++e) {
      const runtime::ModelServerStats s = server->stats(w.specs[e].name);
      samples += s.engine.direct_samples - before[e].engine.direct_samples;
      batches_run += s.engine.direct_batches - before[e].engine.direct_batches;
      shed += s.engine.shed;
      expired += s.engine.expired;
      peak = std::max(peak, s.engine.peak_in_flight);
    }
    rep.metric("engine.avg_batch",
               batches_run ? static_cast<double>(samples) / static_cast<double>(batches_run) : 0,
               "count");
    rep.metric("engine.peak_in_flight", static_cast<double>(peak), "count");
    rep.metric("engine.shed", static_cast<double>(shed), "count");
    rep.metric("engine.expired", static_cast<double>(expired), "count");
    latency_lines(rep, "engine.submit_ms", request_ms, {{".p50", 0.5}, {".p99", 0.99}});
    rep.check(shed == 0 && expired == 0, "batch requests were shed or expired");
    codec_metrics(rep, batches[0], true, 0.2);
  }
}

// ------------------------------------------------------------- wire workloads

/// A pool of single samples with their golden logits.
struct SamplePool {
  std::vector<Tensor> samples;  ///< [C, H, W] each
  Golden golden;
};

/// Latencies of one open-loop segment.
struct OpenResult {
  std::vector<double> latency_ms;  ///< OK + correct replies, from scheduled send
  std::vector<double> late_ms;     ///< how late the sender ran, per request
  std::uint64_t sent = 0, bad = 0;
  double drain_ms = 0;  ///< last reply after the last scheduled send
  double span_s = 0;    ///< schedule start to last reply
};

/// Poisson arrivals at `rate` over [0, seconds), conditioned on their count
/// being exactly rate * seconds: that many uniform offsets, sorted. Fixing
/// the count keeps the offered load identical across seeds. Also picks a
/// pool sample per arrival.
void poisson_schedule(double rate, double seconds, std::uint64_t seed, std::int64_t pool,
                      std::vector<double>& offsets, std::vector<std::int64_t>& picks) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  for (std::size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<double>(rng.uniform()) * seconds);
    picks.push_back(rng.index(pool));
  }
  std::sort(offsets.begin(), offsets.end());
}

/// Open loop over one pipelined connection: this thread sends on the
/// schedule regardless of replies, a receiver thread matches replies by id
/// and checks them bitwise.
OpenResult run_open_wire(runtime::NetClient& client, const SamplePool& pool, double rate,
                         double seconds, std::uint64_t seed) {
  std::vector<double> offsets;
  std::vector<std::int64_t> picks;
  poisson_schedule(rate, seconds, seed, static_cast<std::int64_t>(pool.samples.size()), offsets,
                   picks);
  struct Pending {
    Clock::time_point due;
    std::int64_t pick;
  };
  OpenResult out;
  out.sent = offsets.size();
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Pending> pending;
  Clock::time_point last_reply{};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);

  std::thread receiver([&] {
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      runtime::NetClient::Reply reply;
      try {
        reply = client.recv();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "wire receiver: %s\n", e.what());
        out.bad += offsets.size() - i;
        return;
      }
      const auto now = Clock::now();
      Pending p;
      for (;;) {  // the reply can outrun the sender's bookkeeping insert
        std::unique_lock<std::mutex> lock(mutex);
        const auto it = pending.find(reply.request_id);
        if (it != pending.end()) {
          p = it->second;
          pending.erase(it);
          break;
        }
        lock.unlock();
        std::this_thread::yield();
      }
      last_reply = now;
      const bool ok = reply.status == runtime::wire::Status::Ok &&
                      reply.tensor.numel() == pool.golden.classes &&
                      rows_equal(reply.tensor.data(), pool.golden.row(p.pick),
                                 pool.golden.classes);
      if (ok) {
        out.latency_ms.push_back(ms_since(p.due, now));
      } else {
        ++out.bad;
      }
    }
  });

  out.late_ms.reserve(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const auto due = t0 + seconds_dur(offsets[i]);
    wait_until(due);
    out.late_ms.push_back(ms_since(due));
    std::lock_guard<std::mutex> lock(mutex);  // held across send: insert before any reply lookup
    const std::uint64_t id =
        client.send_infer(kWireModel, pool.samples[static_cast<std::size_t>(picks[i])]);
    pending.emplace(id, Pending{due, picks[i]});
  }
  receiver.join();
  if (!offsets.empty()) out.drain_ms = ms_since(t0 + seconds_dur(offsets.back()), last_reply);
  out.span_s = ms_since(t0, last_reply) / 1e3;
  return out;
}

/// The same schedule driven in-process through Server::submit: a sender
/// submits on schedule, a receiver waits the futures in order.
OpenResult run_open_submit(runtime::Server& server, const SamplePool& pool, double rate,
                           double seconds, std::uint64_t seed) {
  std::vector<double> offsets;
  std::vector<std::int64_t> picks;
  poisson_schedule(rate, seconds, seed, static_cast<std::int64_t>(pool.samples.size()), offsets,
                   picks);
  struct Pending {
    std::future<Tensor> future;
    Clock::time_point due;
    std::int64_t pick;
  };
  OpenResult out;
  out.sent = offsets.size();
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);

  std::thread receiver([&] {
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !queue.empty(); });
        p = std::move(queue.front());
        queue.pop_front();
      }
      bool ok = false;
      try {
        const Tensor row = p.future.get();
        ok = row.numel() == pool.golden.classes &&
             rows_equal(row.data(), pool.golden.row(p.pick), pool.golden.classes);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "submit: %s\n", e.what());
      }
      const auto now = Clock::now();
      if (ok) {
        out.latency_ms.push_back(ms_since(p.due, now));
      } else {
        ++out.bad;
      }
    }
  });

  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const auto due = t0 + seconds_dur(offsets[i]);
    wait_until(due);
    out.late_ms.push_back(ms_since(due));
    Pending p{server.submit(kWireModel, pool.samples[static_cast<std::size_t>(picks[i])]), due,
              picks[i]};
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  receiver.join();
  return out;
}

/// DEPLOY hot-swaps and STATS polls on their own connection at fixed periods
/// until `stop`.
struct ControlResult {
  std::vector<double> deploy_ms, stats_ms;
  std::uint64_t attempted = 0, bad = 0;
};

ControlResult run_control(const std::string& host, std::uint16_t port,
                          const std::string& artifact, Clock::time_point start,
                          Clock::time_point stop) {
  ControlResult out;
  runtime::NetClient client(host, port);
  auto next_deploy = start + seconds_dur(kDeployEveryMs / 1e3);
  auto next_stats = start + seconds_dur(kStatsEveryMs / 1e3);
  std::uint64_t generation = 0;
  for (;;) {
    const bool deploy = next_deploy <= next_stats;
    const auto due = deploy ? next_deploy : next_stats;
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    if (deploy) {
      next_deploy += seconds_dur(kDeployEveryMs / 1e3);
    } else {
      next_stats += seconds_dur(kStatsEveryMs / 1e3);
    }
    ++out.attempted;
    const auto t0 = Clock::now();
    try {
      if (deploy) {
        const std::uint64_t g = client.deploy(kWireModel, artifact);
        out.deploy_ms.push_back(ms_since(t0));
        if (g <= generation) ++out.bad;
        generation = g;
      } else {
        const std::string json = client.stats_json(kWireModel);
        out.stats_ms.push_back(ms_since(t0));
        if (json.find(std::string("\"model\":\"") + kWireModel + "\"") == std::string::npos) {
          ++out.bad;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "control: %s\n", e.what());
      ++out.bad;
    }
  }
  return out;
}

/// Records an open-loop segment's checks.
void account(Report& rep, const OpenResult& r, const std::string& who) {
  rep.count_attempts(r.sent);
  for (std::uint64_t i = 0; i < r.bad; ++i) rep.fail(who + ": failed or wrong reply");
}

/// A self-hosted wire endpoint: Server + NetServer on an ephemeral port.
/// Members destruct in reverse: client, then NetServer (drains), then Server.
struct Endpoint {
  std::unique_ptr<runtime::Server> server;
  std::unique_ptr<runtime::NetServer> net;
  std::unique_ptr<runtime::NetClient> client;
};

void run_wire(Report& rep, bool swap, std::uint64_t seed, double seconds, bool trace,
              const std::string& work_dir) {
  util::set_global_threads(kWireLanes);
  const std::vector<EngineSpec> specs = {{kWireModel, "lenet5_d", CamPrecision::Int8}};
  save_artifacts(work_dir, specs);
  const std::string artifact =
      std::filesystem::absolute(artifact_path(work_dir, specs[0].artifact)).string();

  SetupTimes setup;
  std::unique_ptr<Endpoint> ep;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    ep.reset();
    const auto t0 = Clock::now();
    ep = std::make_unique<Endpoint>();
    ep->server = std::make_unique<runtime::Server>();
    deploy_all(*ep->server, work_dir, specs, setup);
    runtime::NetServerConfig net_config;
    net_config.executors = kExecutors;
    net_config.deploy_config = engine_config(specs[0].precision);
    ep->net = std::make_unique<runtime::NetServer>(*ep->server, net_config);
    ep->net->start();
    ep->client = std::make_unique<runtime::NetClient>("127.0.0.1", ep->net->port());
    setup.total_s.push_back(ms_since(t0) / 1e3);
  }

  data::SyntheticSpec spec = data::mnist_like_spec();
  spec.seed = seed;
  const Tensor images = data::generate(spec, kWirePool).images;
  SamplePool pool;
  for (std::int64_t i = 0; i < kWirePool; ++i) {
    pool.samples.push_back(slice_samples(images, i, 1).reshaped(
        {images.dim(1), images.dim(2), images.dim(3)}));
  }
  std::shared_ptr<runtime::Engine> engine = ep->server->lease(kWireModel);
  ops::OpTotals ops;
  pool.golden = compute_golden(*engine, images, ops);
  std::vector<PerImage> per{per_image(*engine, ops, kWirePool)};
  if (!trace) engine.reset();  // wire-swap retires this generation; do not pin it
  rep.check(ops.muls == 0 && ops.muls_q == 0, "PECAN-D wire engine reported multiplications");

  rep.env("workload.loop", "open, Poisson, 1 sender + 1 receiver thread, 1 pipelined connection");
  rep.env("wire.nominal_rps", std::to_string(kNominalRps));
  rep.env("wire.executors", std::to_string(kExecutors));
  if (swap) {
    rep.env("wire.deploy_every_ms", std::to_string(kDeployEveryMs));
    rep.env("wire.stats_every_ms", std::to_string(kStatsEveryMs));
  }
  const std::string host = "127.0.0.1";
  const std::uint16_t port = ep->net->port();
  std::uint64_t segment_seed = seed * 1000003ull;

  // One nominal-rate segment, with the control connection alongside on
  // wire-swap.
  const auto nominal = [&](double secs, ControlResult& control) {
    const auto start = Clock::now();
    std::thread ctl;
    if (swap) {
      ctl = std::thread([&] {
        control = run_control(host, port, artifact, start, start + seconds_dur(secs));
      });
    }
    OpenResult r = run_open_wire(*ep->client, pool, kNominalRps, secs, ++segment_seed);
    if (ctl.joinable()) ctl.join();
    account(rep, r, "wire nominal");
    rep.count_attempts(control.attempted);
    for (std::uint64_t i = 0; i < control.bad; ++i) rep.fail("wire control request failed");
    return r;
  };

  if (!trace) {
    setup_metrics(rep, setup, false);
    ControlResult control;
    const double nominal_s = swap ? seconds : seconds * kWireNominalShare;
    const OpenResult r = nominal(nominal_s, control);
    rep.metric("img_per_s", static_cast<double>(r.latency_ms.size()) / r.span_s, "img/s",
               "(correct replies per second at the nominal rate)");
    latency_lines(rep, "", r.latency_ms,
                  {{"p25_ms", 0.25}, {"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}});
    latency_lines(rep, "gen.late_ms", r.late_ms, {{".p99", 0.99}});
    if (swap) {
      latency_lines(rep, "swap_ms", control.deploy_ms, {{"", 0.5}});
      latency_lines(rep, "stats.rtt_ms", control.stats_ms, {{".p50", 0.5}, {".p99", 0.99}});
    } else {
      double max_ok = 0;
      for (const double rate : kLadderRps) {
        const OpenResult rung =
            run_open_wire(*ep->client, pool, rate, seconds * kWireRungShare, ++segment_seed);
        account(rep, rung, "wire ladder");
        const double p99 = percentile(rung.latency_ms, 0.99);
        const bool ok = rung.bad == 0 && p99 <= kP99LimitMs && rung.drain_ms <= kP99LimitMs;
        rep.metric("ladder." + std::to_string(static_cast<int>(rate)) + ".p99_ms", p99, "ms",
                   "(n=" + std::to_string(rung.latency_ms.size()) +
                       ", drain " + std::to_string(rung.drain_ms) + " ms" +
                       (ok ? ", meets SLO)" : ", misses SLO)"));
        if (ok && rate > max_ok) max_ok = rate;
      }
      rep.metric("max_rps_at_slo", max_ok, "req/s",
                 "(p99 <= " + std::to_string(kP99LimitMs) + " ms, no backlog)");
      const OpenResult peak =
          run_open_wire(*ep->client, pool, kPeakRps, seconds * kWirePeakShare, ++segment_seed);
      account(rep, peak, "wire peak");
      latency_lines(rep, "p99_ms.peak", peak.latency_ms, {{"", 0.99}});
    }
    energy_metrics(rep, specs, per);
  } else {
    setup_metrics(rep, setup, true);
    count_metrics(rep, specs, per);
    util::set_global_threads(kTraceLanes);
    auto trained = runtime::build_network(runtime::load_artifact(artifact));
    const auto traces = trace_engines(rep, {engine.get()}, {trained.get()},
                                      slice_samples(images, 0, 1), {&pool.golden}, specs,
                                      Clock::now() + seconds_dur(seconds * kTraceWalkShare));
    trace_metrics(rep, specs, traces, 1);
    util::set_global_threads(kWireLanes);
    engine.reset();

    const runtime::ModelServerStats before = ep->server->stats(kWireModel);
    const OpenResult sub = run_open_submit(*ep->server, pool, kNominalRps,
                                           seconds * kTraceServeShare, ++segment_seed);
    account(rep, sub, "in-process submit");
    const runtime::ModelServerStats after = ep->server->stats(kWireModel);
    const auto batches = after.engine.batches - before.engine.batches;
    rep.metric("engine.avg_batch",
               batches ? static_cast<double>(after.engine.batched_samples -
                                             before.engine.batched_samples) /
                             static_cast<double>(batches)
                       : 0.0,
               "count");
    rep.metric("engine.peak_in_flight", static_cast<double>(after.engine.peak_in_flight), "count");
    rep.metric("engine.shed", static_cast<double>(after.engine.shed), "count");
    rep.metric("engine.expired", static_cast<double>(after.engine.expired), "count");
    latency_lines(rep, "engine.submit_ms", sub.latency_ms, {{".p50", 0.5}, {".p99", 0.99}});
    latency_lines(rep, "gen.late_ms", sub.late_ms, {{".p99", 0.99}});

    ControlResult control;
    const OpenResult wire = nominal(seconds * kTraceWireShare, control);
    rep.metric("net.overhead_ms.p50",
               percentile(wire.latency_ms, 0.5) - percentile(sub.latency_ms, 0.5), "ms",
               "(wire p50 minus in-process submit p50)");
    if (swap) {
      latency_lines(rep, "stats.rtt_ms", control.stats_ms, {{".p50", 0.5}, {".p99", 0.99}});
    }
    codec_metrics(rep, pool.samples[0], false, 0.2);
  }
}

// ---------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Report rep;
  try {
    const Args args = parse(argc, argv);
    rep.env("workload", args.workload);
    rep.env("seed", std::to_string(args.seed));
    rep.env("mode", args.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    rep.env("nproc", std::to_string(online_cpus()));
    const bool wire = args.workload.rfind("wire-", 0) == 0;
    rep.env("kernel_lanes", std::to_string(wire ? kWireLanes : kBatchLanes) +
                                (args.trace ? " (serving passes), 1 (step trace)" : ""));
    rep.env("build", std::string(PECAN_BENCH_BUILD_TYPE) + ", portable (PECAN_NATIVE off)");
    rep.env("compiler", PECAN_BENCH_COMPILER);
    if (args.workload == "lenet-batch") {
      run_batch(rep, lenet_batch(), args.seed, args.seconds, args.trace, args.work_dir);
    } else if (args.workload == "resnet-batch") {
      run_batch(rep, resnet_batch(), args.seed, args.seconds, args.trace, args.work_dir);
    } else if (args.workload == "wire-infer") {
      run_wire(rep, false, args.seed, args.seconds, args.trace, args.work_dir);
    } else if (args.workload == "wire-swap") {
      run_wire(rep, true, args.seed, args.seconds, args.trace, args.work_dir);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("fail_frac",
               rep.attempted() ? static_cast<double>(rep.failed()) /
                                     static_cast<double>(rep.attempted())
                               : 1.0,
               "ratio");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pecan_bench: %s\n", e.what());
    return 2;
  }
  rep.print_json();
  return rep.correct() ? 0 : 1;
}
