// google-benchmark microbenches for the kernels the figure benches lean
// on: CSR products, the dual evaluation (legacy and fused/allocation-free),
// term indexing, invariant generation, rule mining, the Anatomy
// partitioner and the closed form.
//
// --json=PATH additionally writes {name, iterations, seconds_per_iter}
// per benchmark for the BENCH_*.json perf trajectory; remaining flags are
// passed through to google-benchmark.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/prng.h"
#include "common/vec_math.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "core/posterior.h"
#include "data/adult_synth.h"
#include "knowledge/miner.h"
#include "maxent/closed_form.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solver.h"

namespace {

using pme::anonymize::BucketizeDataset;
using pme::anonymize::DatasetBucketization;

DatasetBucketization MakeBucketization(size_t records) {
  pme::data::AdultSynthOptions options;
  options.num_records = records;
  auto dataset = pme::data::GenerateAdultLike(options).ValueOrDie();
  auto partition = pme::anonymize::AnatomyPartition(dataset, {}).ValueOrDie();
  return BucketizeDataset(dataset, partition).ValueOrDie();
}

void BM_AdultSynthGenerate(benchmark::State& state) {
  pme::data::AdultSynthOptions options;
  options.num_records = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto d = pme::data::GenerateAdultLike(options).ValueOrDie();
    benchmark::DoNotOptimize(d.num_records());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AdultSynthGenerate)->Arg(1000)->Arg(10000);

void BM_AnatomyPartition(benchmark::State& state) {
  pme::data::AdultSynthOptions options;
  options.num_records = static_cast<size_t>(state.range(0));
  auto dataset = pme::data::GenerateAdultLike(options).ValueOrDie();
  for (auto _ : state) {
    auto partition =
        pme::anonymize::AnatomyPartition(dataset, {}).ValueOrDie();
    benchmark::DoNotOptimize(partition.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnatomyPartition)->Arg(1000)->Arg(10000);

void BM_TermIndexBuild(benchmark::State& state) {
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto index = pme::constraints::TermIndex::Build(bz.table);
    benchmark::DoNotOptimize(index.num_variables());
  }
}
BENCHMARK(BM_TermIndexBuild)->Arg(1000)->Arg(10000);

void BM_InvariantGeneration(benchmark::State& state) {
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  for (auto _ : state) {
    auto invariants = pme::constraints::GenerateInvariants(bz.table, index);
    benchmark::DoNotOptimize(invariants.size());
  }
}
BENCHMARK(BM_InvariantGeneration)->Arg(1000)->Arg(10000);

void BM_RuleMining(benchmark::State& state) {
  pme::data::AdultSynthOptions options;
  options.num_records = 2000;
  auto dataset = pme::data::GenerateAdultLike(options).ValueOrDie();
  pme::knowledge::MinerOptions miner;
  miner.min_support_records = 3;
  miner.max_attrs = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto rules =
        pme::knowledge::MineAssociationRules(dataset, miner).ValueOrDie();
    benchmark::DoNotOptimize(rules.size());
  }
}
BENCHMARK(BM_RuleMining)->Arg(1)->Arg(2)->Arg(3);

void BM_DualEvaluate(benchmark::State& state) {
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  pme::maxent::DualFunction dual(&problem.eq, problem.eq_rhs);
  std::vector<double> lambda(dual.dim(), 0.1), grad;
  for (auto _ : state) {
    double v = dual.Evaluate(lambda, &grad, nullptr);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(problem.eq.nnz()));
}
// The 100-record point is the block-decomposition regime: tiny duals
// where per-call allocation is a visible fraction of the kernel.
BENCHMARK(BM_DualEvaluate)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DualEvaluateFused(benchmark::State& state) {
  // The solver hot path: EvaluateInto against a persistent workspace.
  // After the first call every iteration is allocation-free, which is
  // what separates this curve from BM_DualEvaluate's.
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  pme::maxent::DualFunction dual(&problem.eq, problem.eq_rhs);
  std::vector<double> lambda(dual.dim(), 0.1), grad;
  pme::maxent::DualWorkspace ws;
  for (auto _ : state) {
    double v = dual.EvaluateInto(lambda, &grad, &ws);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(problem.eq.nnz()));
}
BENCHMARK(BM_DualEvaluateFused)->Arg(100)->Arg(1000)->Arg(10000);

/// RAII guard: forces a dispatch mode for one benchmark body and restores
/// the previous mode afterwards (benchmarks run in one process; dispatch
/// is global, and a --simd=off run must stay off for the other benches).
class SimdModeGuard {
 public:
  explicit SimdModeGuard(pme::kernels::SimdMode mode)
      : saved_(pme::kernels::GetSimdMode()) {
    pme::kernels::SetSimdMode(mode);
  }
  ~SimdModeGuard() { pme::kernels::SetSimdMode(saved_); }

 private:
  pme::kernels::SimdMode saved_;
};

/// Per-ISA A/B column encoding for the benchmark arg: 0 = scalar,
/// 1 = AVX2+FMA, 2 = AVX-512. Forcing a tier the host lacks falls back
/// down the dispatch ladder, so on an AVX2-only machine the tier-2 rows
/// duplicate the tier-1 numbers (the row name records what was asked).
pme::kernels::SimdMode ModeFromArg(int64_t arg) {
  switch (arg) {
    case 0:
      return pme::kernels::SimdMode::kOff;
    case 1:
      return pme::kernels::SimdMode::kAvx2;
    case 2:
      return pme::kernels::SimdMode::kAvx512;
    default:
      return pme::kernels::SimdMode::kAuto;
  }
}

void BM_ExpM1Kernel(benchmark::State& state) {
  // The p = exp(Aᵀλ − 1) pass in isolation: range(0) elements, range(1)
  // selects the ISA tier (see ModeFromArg). The ≥2x SIMD-vs-scalar claim
  // in BENCH_kernels.json comes from these columns.
  const size_t n = static_cast<size_t>(state.range(0));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  pme::Prng prng(11);
  std::vector<double> x(n), y(n);
  // Typical dual exponents live in a modest range; seed a few clamp
  // boundaries so the bench covers the branchy path too.
  for (auto& v : x) v = prng.NextDouble(-30.0, 10.0);
  for (size_t i = 0; i < n; i += 1024) x[i] = (i % 2048 == 0) ? 710.0 : -710.0;
  for (auto _ : state) {
    pme::kernels::ExpM1Shifted(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ExpM1Kernel)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({65536, 2});

void BM_ExpM1SumFused(benchmark::State& state) {
  // The fused in-place exp + horizontal-accumulate kernel the dual
  // objective actually calls.
  const size_t n = static_cast<size_t>(state.range(0));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  pme::Prng prng(13);
  std::vector<double> x0(n), x(n);
  for (auto& v : x0) v = prng.NextDouble(-30.0, 10.0);
  for (auto _ : state) {
    x = x0;
    double s = pme::kernels::ExpM1SumInPlace(x);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ExpM1SumFused)
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({65536, 2});

void BM_LnLibm(benchmark::State& state) {
  // The per-element std::log baseline the batched Ln kernel is measured
  // against (the >= 2x claim in BENCH_kernels.json).
  const size_t n = static_cast<size_t>(state.range(0));
  pme::Prng prng(29);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = std::exp(prng.NextDouble(-20.0, 20.0));
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) y[i] = std::log(x[i]);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_LnLibm)->Arg(4096)->Arg(65536);

void BM_Ln(benchmark::State& state) {
  // Batched natural log (the GIS multiplier update, entropy deltas).
  const size_t n = static_cast<size_t>(state.range(0));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  pme::Prng prng(29);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = std::exp(prng.NextDouble(-20.0, 20.0));
  for (auto _ : state) {
    pme::kernels::Ln(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Ln)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({65536, 2});

void BM_NegXLogXSum(benchmark::State& state) {
  // Fused entropy reduction -sum x ln x (Entropy(), the per-q effective
  // candidate count).
  const size_t n = static_cast<size_t>(state.range(0));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  pme::Prng prng(31);
  std::vector<double> x(n);
  for (auto& v : x) v = prng.NextDouble(0.0, 1.0);
  x[n / 3] = 0.0;  // keep the zero-handling lane honest
  for (auto _ : state) {
    double h = pme::kernels::NegXLogXSum(x);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NegXLogXSum)
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({65536, 2});

void BM_KlDivergence(benchmark::State& state) {
  // Fused KL reduction (estimation accuracy, per-q evaluation).
  const size_t n = static_cast<size_t>(state.range(0));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  pme::Prng prng(37);
  std::vector<double> p(n), q(n);
  for (auto& v : p) v = prng.NextDouble(0.0, 1.0);
  for (auto& v : q) v = prng.NextDouble(0.0, 1.0);
  p[n / 5] = 0.0;
  q[n / 7] = 0.0;  // exercises the q-floor clamp
  for (auto _ : state) {
    double d = pme::kernels::KlDivergence(p, q, 1e-12);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KlDivergence)
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({65536, 2});

void BM_EvaluatePerQ(benchmark::State& state) {
  // The serving layer's per-q evaluation sweep (KL + best guess +
  // effective candidates per q row) end to end, per ISA tier.
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  const auto truth = pme::core::PosteriorTable::GroundTruth(bz.table);
  const auto estimate = pme::core::PosteriorTable::FromSolution(
      bz.table, index, pme::maxent::ClosedFormNoKnowledge(bz.table, index));
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  for (auto _ : state) {
    auto eval = pme::core::EvaluatePerQ(truth, estimate);
    benchmark::DoNotOptimize(eval.kl.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(truth.num_qi()));
}
BENCHMARK(BM_EvaluatePerQ)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2});

void BM_DualEvaluateSimd(benchmark::State& state) {
  // End-to-end dual evaluation (CSR transpose product, fused exp-sum,
  // fused gradient pass) under both dispatch modes.
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  pme::maxent::DualFunction dual(&problem.eq, problem.eq_rhs);
  std::vector<double> lambda(dual.dim(), 0.1), grad;
  pme::maxent::DualWorkspace ws;
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  for (auto _ : state) {
    double v = dual.EvaluateInto(lambda, &grad, &ws);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(problem.eq.nnz()));
}
// 14210 records = the paper's full scale (2,842 buckets of 5).
BENCHMARK(BM_DualEvaluateSimd)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({14210, 0})
    ->Args({14210, 1})
    ->Args({14210, 2});

void BM_SolveSimd(benchmark::State& state) {
  // Whole LBFGS solve (invariant system, no knowledge) under both
  // dispatch modes: the end-to-end view of the kernel gains.
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  SimdModeGuard guard(ModeFromArg(state.range(1)));
  for (auto _ : state) {
    auto result = pme::maxent::Solve(problem).ValueOrDie();
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_SolveSimd)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({2000, 2});

void BM_ClosedForm(benchmark::State& state) {
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  for (auto _ : state) {
    auto p = pme::maxent::ClosedFormNoKnowledge(bz.table, index);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_ClosedForm)->Arg(1000)->Arg(10000);

void BM_SolveNoKnowledge(benchmark::State& state) {
  auto bz = MakeBucketization(static_cast<size_t>(state.range(0)));
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  for (auto _ : state) {
    auto result = pme::maxent::Solve(problem).ValueOrDie();
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_SolveNoKnowledge)->Arg(500)->Arg(2000);

void BM_PresolveZeroHeavy(benchmark::State& state) {
  // Zero-heavy systems (many hard-zero knowledge rows) are presolve's
  // worst case: cascades of forcing passes.
  auto bz = MakeBucketization(2000);
  auto index = pme::constraints::TermIndex::Build(bz.table);
  pme::constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(pme::constraints::GenerateInvariants(bz.table, index));
  pme::knowledge::KnowledgeBase kb;
  pme::Prng prng(3);
  for (int i = 0; i < state.range(0); ++i) {
    const uint32_t q = static_cast<uint32_t>(
        prng.NextBounded(bz.table.num_qi_values()));
    const uint32_t s = static_cast<uint32_t>(
        prng.NextBounded(bz.table.num_sa_values()));
    kb.Add(pme::knowledge::AbstractConditional(
        q, {s}, bz.table.TrueConditional(q, s)));
  }
  auto compiled =
      pme::constraints::CompileKnowledge(kb, bz.table, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = pme::maxent::BuildProblem(system).ValueOrDie();
  for (auto _ : state) {
    auto pre = pme::maxent::Presolve(problem).ValueOrDie();
    benchmark::DoNotOptimize(pre.num_fixed);
  }
}
BENCHMARK(BM_PresolveZeroHeavy)->Arg(100)->Arg(1000);

/// Console reporter that additionally captures (name, iterations,
/// seconds/iter) for the --json trajectory file.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    int64_t iterations;
    double seconds_per_iter;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      row.seconds_per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

void WriteJson(const std::string& path,
               const std::vector<CapturingReporter::Row>& rows) {
  pme::bench::JsonWriter json(path, "micro_kernels");
  // The host's active ISA tier plus the process metrics snapshot.
  json.Field("simd", std::string(pme::kernels::SimdModeName()));
  json.Field("avx2_supported", static_cast<size_t>(
                                   pme::kernels::Avx2Supported() ? 1 : 0));
  json.Field("avx512_supported",
             static_cast<size_t>(pme::kernels::Avx512Supported() ? 1 : 0));
  json.EmbedMetricsSnapshot();
  for (const auto& row : rows) {
    json.BeginRow();
    json.RowField("name", row.name);
    json.RowField("iterations", static_cast<size_t>(row.iterations));
    json.RowField("seconds_per_iter", row.seconds_per_iter);
    for (const auto& [name, value] : row.counters) {
      json.RowField(name, value);
    }
  }
  json.Write();
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json=PATH and --simd=MODE before google-benchmark sees
  // (and rejects) them.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--simd=", 7) == 0) {
      pme::kernels::SetSimdMode(pme::kernels::ParseSimdMode(argv[i] + 7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) WriteJson(json_path, reporter.rows());
  benchmark::Shutdown();
  return 0;
}
