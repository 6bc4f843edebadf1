#include "anonymize/bucketized_table.h"

#include <algorithm>

#include "common/trace.h"

namespace pme::anonymize {

namespace {

/// Appends the (id, count) runs of the sorted ids [first, last) to `runs`.
void AppendRuns(const uint32_t* first, const uint32_t* last,
                Csr<IdCount>* runs) {
  for (const uint32_t* it = first; it != last;) {
    const uint32_t* end = it;
    while (end != last && *end == *it) ++end;
    runs->items.push_back(IdCount{*it, static_cast<uint32_t>(end - it)});
    it = end;
  }
  runs->EndList();
}

/// The inverted lists of per-bucket runs: for each of `num_ids` ids, the
/// buckets whose run holds it, ascending.
Csr<uint32_t> InvertRuns(const Csr<IdCount>& runs, uint32_t num_ids) {
  Csr<uint32_t> out;
  out.offsets.assign(static_cast<size_t>(num_ids) + 1, 0);
  for (const IdCount& run : runs.items) ++out.offsets[run.id + 1];
  for (uint32_t id = 0; id < num_ids; ++id) {
    out.offsets[id + 1] += out.offsets[id];
  }
  out.items.resize(runs.items.size());
  std::vector<uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (uint32_t b = 0; b < runs.num_lists(); ++b) {
    for (const IdCount& run : runs.List(b)) out.items[cursor[run.id]++] = b;
  }
  return out;
}

/// The run of `id` in a bucket's sorted runs, or nullptr.
const IdCount* FindRun(Span<const IdCount> runs, uint32_t id) {
  const IdCount* it = std::lower_bound(
      runs.begin(), runs.end(), id,
      [](const IdCount& run, uint32_t key) { return run.id < key; });
  return it != runs.end() && it->id == id ? it : nullptr;
}

}  // namespace

Result<BucketizedTable> BucketizedTable::Create(
    std::vector<AbstractRecord> records, std::vector<std::string> qi_names,
    std::vector<std::string> sa_names) {
  std::string qi_name_chars;
  std::vector<size_t> qi_name_offsets;
  if (!qi_names.empty()) {
    qi_name_offsets.reserve(qi_names.size() + 1);
    qi_name_offsets.push_back(0);
    for (const std::string& name : qi_names) {
      qi_name_chars += name;
      qi_name_offsets.push_back(qi_name_chars.size());
    }
  }
  return Build(std::move(records), std::move(qi_name_chars),
               std::move(qi_name_offsets), std::move(sa_names));
}

Result<BucketizedTable> BucketizedTable::Build(
    std::vector<AbstractRecord> records, std::string qi_name_chars,
    std::vector<size_t> qi_name_offsets, std::vector<std::string> sa_names) {
  if (records.empty()) {
    return Status::InvalidArgument("bucketized table needs >= 1 record");
  }
  if (records.size() >= UINT32_MAX) {
    return Status::InvalidArgument("bucketized table needs < 2^32 records");
  }
  uint32_t max_bucket = 0, max_qi = 0, max_sa = 0;
  for (const auto& r : records) {
    max_bucket = std::max(max_bucket, r.bucket);
    max_qi = std::max(max_qi, r.qi);
    max_sa = std::max(max_sa, r.sa);
  }
  const size_t m = static_cast<size_t>(max_bucket) + 1;

  BucketizedTable t;
  t.num_qi_ = max_qi + 1;
  t.num_sa_ = max_sa + 1;
  if (!qi_name_offsets.empty() && qi_name_offsets.size() - 1 < t.num_qi_) {
    return Status::InvalidArgument("qi_names shorter than QI instance count");
  }
  if (!sa_names.empty() && sa_names.size() < t.num_sa_) {
    return Status::InvalidArgument("sa_names shorter than SA instance count");
  }
  t.qi_name_chars_ = std::move(qi_name_chars);
  t.qi_name_offsets_ = std::move(qi_name_offsets);
  t.sa_names_ = std::move(sa_names);

  // Bucket sizes, then their prefix sums.
  t.bucket_records_.assign(m + 1, 0);
  for (const auto& r : records) ++t.bucket_records_[r.bucket + 1];
  for (size_t b = 0; b < m; ++b) {
    if (t.bucket_records_[b + 1] == 0) {
      return Status::InvalidArgument("bucket indices must be dense; bucket " +
                                     std::to_string(b) + " is empty");
    }
    t.bucket_records_[b + 1] += t.bucket_records_[b];
  }

  // Scatter the records by bucket, keeping record order within each.
  const size_t n = records.size();
  t.bucket_qis_.resize(n);
  t.bucket_sas_.resize(n);
  t.qi_totals_.assign(t.num_qi_, 0);
  {
    std::vector<uint32_t> cursor(t.bucket_records_.begin(),
                                 t.bucket_records_.end() - 1);
    for (const auto& r : records) {
      const uint32_t pos = cursor[r.bucket]++;
      t.bucket_qis_[pos] = r.qi;
      t.bucket_sas_[pos] = r.sa;
      ++t.qi_totals_[r.qi];
    }
  }

  // Per-bucket runs. Publish the SA multiset in sorted order: the
  // original record order inside a bucket must not leak the binding.
  t.qi_runs_.offsets.reserve(m + 1);
  t.sa_runs_.offsets.reserve(m + 1);
  std::vector<uint32_t> sorted_qis;
  for (size_t b = 0; b < m; ++b) {
    const Span<const uint32_t> qis = t.BucketQis(static_cast<uint32_t>(b));
    sorted_qis.assign(qis.begin(), qis.end());
    std::sort(sorted_qis.begin(), sorted_qis.end());
    AppendRuns(sorted_qis.data(), sorted_qis.data() + sorted_qis.size(),
               &t.qi_runs_);
    uint32_t* sas = t.bucket_sas_.data() + t.bucket_records_[b];
    uint32_t* sas_end = t.bucket_sas_.data() + t.bucket_records_[b + 1];
    std::sort(sas, sas_end);
    AppendRuns(sas, sas_end, &t.sa_runs_);
  }
  t.qi_buckets_ = InvertRuns(t.qi_runs_, t.num_qi_);
  t.sa_buckets_ = InvertRuns(t.sa_runs_, t.num_sa_);
  t.records_ = std::move(records);
  return t;
}

bool BucketizedTable::QiInBucket(uint32_t q, uint32_t b) const {
  return FindRun(BucketQiCounts(b), q) != nullptr;
}

bool BucketizedTable::SaInBucket(uint32_t s, uint32_t b) const {
  return FindRun(BucketSaCounts(b), s) != nullptr;
}

double BucketizedTable::ProbQB(uint32_t q, uint32_t b) const {
  const IdCount* run = FindRun(BucketQiCounts(b), q);
  return run == nullptr ? 0.0 : CountProb(run->count);
}

double BucketizedTable::ProbSB(uint32_t s, uint32_t b) const {
  const IdCount* run = FindRun(BucketSaCounts(b), s);
  return run == nullptr ? 0.0 : CountProb(run->count);
}

double BucketizedTable::TrueConditional(uint32_t q, uint32_t s) const {
  size_t q_count = 0, qs_count = 0;
  for (const auto& r : records_) {
    if (r.qi == q) {
      ++q_count;
      if (r.sa == s) ++qs_count;
    }
  }
  if (q_count == 0) return 0.0;
  return static_cast<double>(qs_count) / static_cast<double>(q_count);
}

std::string BucketizedTable::QiName(uint32_t q) const {
  if (static_cast<size_t>(q) + 1 < qi_name_offsets_.size()) {
    return qi_name_chars_.substr(
        qi_name_offsets_[q], qi_name_offsets_[q + 1] - qi_name_offsets_[q]);
  }
  return "q" + std::to_string(q + 1);
}

std::string BucketizedTable::SaName(uint32_t s) const {
  if (s < sa_names_.size()) return sa_names_[s];
  return "s" + std::to_string(s + 1);
}

Result<DatasetBucketization> BucketizeDataset(
    const data::Dataset& dataset, const std::vector<uint32_t>& partition) {
  trace::TraceSpan span("bucketize", "setup");
  if (partition.size() != dataset.num_records()) {
    return Status::InvalidArgument(
        "partition size must equal the record count");
  }
  PME_ASSIGN_OR_RETURN(const size_t sa_attr,
                       dataset.schema().SoleSensitiveIndex());
  data::TupleEncoder encoder(dataset.schema().QiIndices());

  std::vector<AbstractRecord> records(dataset.num_records());
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    records[r].qi = encoder.Encode(dataset, r);
    records[r].sa = dataset.At(r, sa_attr);
    records[r].bucket = partition[r];
  }

  // One exact reservation for every QI label: "attr=value" per tuple
  // position, joined by commas.
  const data::Schema& schema = dataset.schema();
  size_t label_chars = 0;
  for (size_t attr : encoder.attrs()) {
    label_chars += schema.attribute(attr).name.size() + 2;  // '=' and ','
  }
  label_chars *= encoder.size();
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    const Span<const uint32_t> tuple = encoder.Decode(q);
    for (size_t i = 0; i < tuple.size(); ++i) {
      const auto& dictionary = schema.attribute(encoder.attrs()[i]).dictionary;
      label_chars += dictionary.ValueOf(tuple[i]).size();
    }
  }
  std::string qi_name_chars;
  qi_name_chars.reserve(label_chars);
  std::vector<size_t> qi_name_offsets;
  qi_name_offsets.reserve(static_cast<size_t>(encoder.size()) + 1);
  qi_name_offsets.push_back(0);
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    encoder.AppendString(dataset, q, &qi_name_chars);
    qi_name_offsets.push_back(qi_name_chars.size());
  }
  const auto& sa_dict = dataset.schema().attribute(sa_attr).dictionary;
  std::vector<std::string> sa_names(sa_dict.size());
  for (uint32_t s = 0; s < sa_dict.size(); ++s) {
    sa_names[s] = sa_dict.ValueOf(s);
  }
  span.AddArg("records", static_cast<double>(records.size()));
  span.AddArg("qi_values", static_cast<double>(encoder.size()));

  PME_ASSIGN_OR_RETURN(
      BucketizedTable table,
      BucketizedTable::Build(std::move(records), std::move(qi_name_chars),
                             std::move(qi_name_offsets), std::move(sa_names)));
  return DatasetBucketization{std::move(table), std::move(encoder), sa_attr};
}

}  // namespace pme::anonymize
