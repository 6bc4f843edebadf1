// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_ANONYMIZE_BUCKETIZED_TABLE_H_
#define PME_ANONYMIZE_BUCKETIZED_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "data/dataset.h"

namespace pme::anonymize {

/// One original record in abstract form: which QI instance, which SA
/// instance, which bucket. The (qi, sa) binding is the ground truth the
/// adversary tries to reconstruct; the *published* view of a bucket is only
/// the multiset of QI instances and the multiset of SA instances.
struct AbstractRecord {
  uint32_t qi = 0;
  uint32_t sa = 0;
  uint32_t bucket = 0;
};

/// One distinct instance of a bucket and how many of the bucket's
/// records carry it.
struct IdCount {
  uint32_t id = 0;
  uint32_t count = 0;
};

struct DatasetBucketization;

/// The bucketized data set D' of the paper, in the abstract form of
/// Figure 1(c): records are identified by dense QI-instance ids (q1, q2,
/// ...) and SA-instance ids (s1, s2, ...), partitioned into buckets.
///
/// The table keeps the ground-truth record bindings for evaluation (the
/// paper's "Estimation Accuracy" compares the MaxEnt posterior against the
/// original data), but every quantity a real adversary could observe —
/// bucket membership multisets, P(q), P(q,b), P(s,b) — is exposed through
/// its own accessor and derived only from the published view.
///
/// Layout: every per-bucket and per-instance list is one CSR array built
/// by counting passes. A bucket publishes its QI and SA multisets both as
/// lists and as runs of (id, count) pairs sorted by id; the inverted
/// lists name the buckets each instance occurs in, ascending.
class BucketizedTable {
 public:
  /// Validates and builds a table from abstract records. Bucket indices
  /// must be dense in [0, max_bucket]. `qi_names` / `sa_names` are optional
  /// display labels (empty means synthetic "q{i}"/"s{j}" labels).
  static Result<BucketizedTable> Create(std::vector<AbstractRecord> records,
                                        std::vector<std::string> qi_names = {},
                                        std::vector<std::string> sa_names = {});

  /// Total number of records N.
  size_t num_records() const { return records_.size(); }
  /// Number of buckets m.
  size_t num_buckets() const { return bucket_records_.size() - 1; }
  /// Number of distinct QI instances across the table.
  uint32_t num_qi_values() const { return num_qi_; }
  /// Number of distinct SA instances across the table.
  uint32_t num_sa_values() const { return num_sa_; }

  /// Ground-truth abstract records (evaluation only).
  const std::vector<AbstractRecord>& records() const { return records_; }

  /// QI instances present in bucket `b`, one entry per occurrence in
  /// record order (published view).
  Span<const uint32_t> BucketQis(uint32_t b) const {
    return Slice(bucket_qis_, b);
  }
  /// SA instances present in bucket `b`, one entry per occurrence, sorted —
  /// the published "mixed bag" of Figure 1(b) (published view).
  Span<const uint32_t> BucketSas(uint32_t b) const {
    return Slice(bucket_sas_, b);
  }

  /// Distinct QI instances in bucket `b` with multiplicities, ascending.
  Span<const IdCount> BucketQiCounts(uint32_t b) const {
    return qi_runs_.List(b);
  }
  /// Distinct SA instances in bucket `b` with multiplicities, ascending.
  Span<const IdCount> BucketSaCounts(uint32_t b) const {
    return sa_runs_.List(b);
  }

  /// True iff QI instance q occurs in bucket b.
  bool QiInBucket(uint32_t q, uint32_t b) const;
  /// True iff SA instance s occurs in bucket b.
  bool SaInBucket(uint32_t s, uint32_t b) const;

  /// Buckets containing QI instance q, ascending.
  Span<const uint32_t> BucketsWithQi(uint32_t q) const {
    return qi_buckets_.List(q);
  }
  /// Buckets containing SA instance s, ascending.
  Span<const uint32_t> BucketsWithSa(uint32_t s) const {
    return sa_buckets_.List(s);
  }

  /// count / N: the fraction of the table's records that `count` of them
  /// make up. Every probability accessor below is this expression.
  double CountProb(size_t count) const {
    return static_cast<double>(count) / static_cast<double>(records_.size());
  }
  /// P(q): fraction of records with QI instance q (observable: QI values
  /// are published in clear).
  double ProbQ(uint32_t q) const { return CountProb(qi_totals_[q]); }
  /// P(q, b): fraction of records with QI instance q in bucket b.
  double ProbQB(uint32_t q, uint32_t b) const;
  /// P(s, b): fraction of records with SA instance s in bucket b
  /// (observable: the bucket's SA multiset is published).
  double ProbSB(uint32_t s, uint32_t b) const;
  /// P(b): fraction of records in bucket b.
  double ProbB(uint32_t b) const {
    return CountProb(bucket_records_[b + 1] - bucket_records_[b]);
  }

  /// Ground-truth conditional P(s | q) computed from the original
  /// bindings; used only for evaluation.
  double TrueConditional(uint32_t q, uint32_t s) const;

  /// Display label of a QI instance ("q3" or a caller-provided name).
  std::string QiName(uint32_t q) const;
  /// Display label of an SA instance.
  std::string SaName(uint32_t s) const;

 private:
  friend Result<DatasetBucketization> BucketizeDataset(
      const data::Dataset& dataset, const std::vector<uint32_t>& partition);

  BucketizedTable() = default;

  /// The one construction path: `qi_name_offsets` delimits the labels
  /// packed in `qi_name_chars` (empty offsets: no labels).
  static Result<BucketizedTable> Build(std::vector<AbstractRecord> records,
                                       std::string qi_name_chars,
                                       std::vector<size_t> qi_name_offsets,
                                       std::vector<std::string> sa_names);

  Span<const uint32_t> Slice(const std::vector<uint32_t>& per_record,
                             uint32_t b) const {
    return {per_record.data() + bucket_records_[b],
            bucket_records_[b + 1] - bucket_records_[b]};
  }

  std::vector<AbstractRecord> records_;
  uint32_t num_qi_ = 0;
  uint32_t num_sa_ = 0;
  // Bucket b's records are positions [bucket_records_[b],
  // bucket_records_[b + 1]) of bucket_qis_ and bucket_sas_.
  std::vector<uint32_t> bucket_records_{0};
  std::vector<uint32_t> bucket_qis_;
  std::vector<uint32_t> bucket_sas_;
  Csr<IdCount> qi_runs_;      // per bucket
  Csr<IdCount> sa_runs_;      // per bucket
  Csr<uint32_t> qi_buckets_;  // per QI instance
  Csr<uint32_t> sa_buckets_;  // per SA instance
  std::vector<uint32_t> qi_totals_;  // occurrences of each QI instance
  std::string qi_name_chars_;
  std::vector<size_t> qi_name_offsets_;  // empty, or one more than names
  std::vector<std::string> sa_names_;
};

/// Bridges a concrete Dataset to the abstract form: encodes each record's
/// QI tuple and SA value into dense instance ids using `partition[row]` as
/// the bucket assignment. Returns the table plus the QI tuple encoder (so
/// knowledge expressed over raw attributes can be mapped to instance ids).
struct DatasetBucketization {
  BucketizedTable table;
  data::TupleEncoder qi_encoder;
  /// SA instance id == SA dictionary code (identity mapping).
  size_t sa_attr = 0;
};

Result<DatasetBucketization> BucketizeDataset(
    const data::Dataset& dataset, const std::vector<uint32_t>& partition);

}  // namespace pme::anonymize

#endif  // PME_ANONYMIZE_BUCKETIZED_TABLE_H_
