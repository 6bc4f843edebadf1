#include "serve/serve_main.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "data/adult_synth.h"
#include "data/csv.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace pme::serve {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<data::Dataset> LoadOrGenerate(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) {
    // No CSV: serve the synthetic Adult-like benchmark table (the
    // quickstart path — no files needed).
    data::AdultSynthOptions options;
    options.num_records =
        static_cast<size_t>(flags.GetInt("records", 2000));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 20080612));
    return data::GenerateAdultLike(options);
  }
  data::CsvReadOptions options;
  const std::string sensitive = flags.GetString("sensitive", "");
  if (sensitive.empty()) {
    return Status::InvalidArgument("--sensitive=ATTR is required with --data");
  }
  options.sensitive_attributes = {sensitive};
  for (const auto& id : Split(flags.GetString("id", ""), ',')) {
    if (!id.empty()) options.identifier_attributes.emplace_back(id);
  }
  return data::ReadCsv(path, options);
}

}  // namespace

int ServeMain(const Flags& flags) {
  // A removed flag says so before the unknown-flag check.
  if (flags.Has("solver")) {
    return Fail(Status::InvalidArgument(
        "--solver was removed: every problem is solved by LBFGS"));
  }
  if (Status s = flags.Check({"data", "sensitive", "id", "host", "cache",
                              "metrics-out", "trace-out"},
                             {"records", "seed", "ell", "port", "threads",
                              "deadline-ms", "cache-mb", "max-connections"});
      !s.ok()) {
    return Fail(s);
  }
  auto dataset_or = LoadOrGenerate(flags);
  if (!dataset_or.ok()) return Fail(dataset_or.status());
  auto dataset =
      std::make_shared<const data::Dataset>(std::move(dataset_or).value());

  anonymize::AnatomyOptions anatomy;
  anatomy.ell = static_cast<size_t>(flags.GetInt("ell", 5));
  auto partition = anonymize::AnatomyPartition(*dataset, anatomy);
  if (!partition.ok()) return Fail(partition.status());
  auto bz_or = anonymize::BucketizeDataset(*dataset, partition.value());
  if (!bz_or.ok()) return Fail(bz_or.status());
  // One shared owner for table + encoder; the artifact holds aliased
  // views into it, so everything lives exactly as long as the server.
  auto bucketization = std::make_shared<anonymize::DatasetBucketization>(
      std::move(bz_or).value());

  ServeOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("port", 7321));
  options.solver_threads = static_cast<size_t>(flags.GetInt("threads", 0));
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 64));
  options.default_deadline_ms =
      static_cast<double>(flags.GetInt("deadline-ms", 0));
  options.cache_mb = static_cast<size_t>(flags.GetInt("cache-mb", 64));
  auto cache_mode = maxent::ParseCacheMode(flags.GetString("cache", "warm"));
  if (!cache_mode.ok()) return Fail(cache_mode.status());
  options.analysis.solver_options.cache_mode = cache_mode.value();
  if (cache_mode.value() == maxent::CacheMode::kOff) options.cache_mb = 0;

  auto artifact = core::TableArtifact::Build(
      std::shared_ptr<const anonymize::BucketizedTable>(bucketization,
                                                        &bucketization->table),
      std::shared_ptr<const data::TupleEncoder>(bucketization,
                                                &bucketization->qi_encoder));
  if (!artifact.ok()) return Fail(artifact.status());

  AnalysisServer server(artifact.value(), dataset, options);
  if (Status s = server.Start(); !s.ok()) return Fail(s);
  std::printf(
      "pme serve: listening on %s:%u (%zu records, %zu buckets, %zu vars, "
      "artifact %s)\n",
      options.host.c_str(), static_cast<unsigned>(server.port()),
      bucketization->table.num_records(), bucketization->table.num_buckets(),
      artifact.value()->index().num_variables(),
      artifact.value()->content_hash().ToHex().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Shutdown();
  const ServeStats stats = server.stats();
  std::printf(
      "pme serve: shut down (%zu connections, %zu ok, %zu errors, "
      "%zu past-deadline)\n",
      stats.connections_accepted, stats.requests_ok, stats.requests_error,
      stats.requests_deadline_exceeded);
  if (const std::string path = flags.GetString("metrics-out", "");
      !path.empty()) {
    std::ofstream out(path);
    if (out) {
      out << metrics::Registry::Global().RenderJson() << "\n";
      std::printf("pme serve: metrics written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    }
  }
  if (const std::string path = flags.GetString("trace-out", "");
      !path.empty()) {
    if (trace::WriteChromeTrace(path)) {
      std::printf("pme serve: trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace pme::serve
