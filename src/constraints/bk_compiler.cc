#include "constraints/bk_compiler.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/metrics.h"

namespace pme::constraints {
namespace {

constexpr double kZeroTol = 1e-12;

/// Process-wide compile.* metrics, summed over every artifact's memo.
struct MemoMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Gauge* bytes;
};

MemoMetrics& GetMemoMetrics() {
  static MemoMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    MemoMetrics r;
    r.hits = &registry.GetCounter("compile.memo_hits");
    r.misses = &registry.GetCounter("compile.memo_misses");
    r.bytes = &registry.GetGauge("compile.memo_bytes");
    return r;
  }();
  return m;
}

/// The canonical term key of a statement: everything its StatementTerms
/// depend on, in an order-free form. Dataset mode hashes the sorted
/// (attribute, value) pairs of Qv (with both list lengths, so a
/// malformed statement never shares a well-formed one's key), abstract
/// mode the QI instance; both then hash the sorted, de-duplicated S-set.
Hash128 StatementTermKey(const knowledge::ConditionalStatement& stmt) {
  Hasher128 h;
  h.Update(std::string_view("pme.stmtterms.v1"));
  if (stmt.abstract_qi.has_value()) {
    h.Update(uint64_t{1});
    h.Update(*stmt.abstract_qi);
  } else {
    h.Update(uint64_t{0});
    std::vector<std::pair<size_t, uint32_t>> qv;
    for (size_t i = 0; i < stmt.attrs.size() && i < stmt.values.size(); ++i) {
      qv.emplace_back(stmt.attrs[i], stmt.values[i]);
    }
    std::sort(qv.begin(), qv.end());
    h.Update(static_cast<uint64_t>(stmt.attrs.size()));
    h.Update(static_cast<uint64_t>(stmt.values.size()));
    for (const auto& [attr, value] : qv) {
      h.Update(static_cast<uint64_t>(attr));
      h.Update(value);
    }
  }
  const std::set<uint32_t> sa_set(stmt.sa_codes.begin(), stmt.sa_codes.end());
  h.Update(static_cast<uint64_t>(sa_set.size()));
  for (const uint32_t s : sa_set) h.Update(s);
  return h.Finish();
}

/// Resolves statement `stmt_no`'s Qv and emits its terms: for every QI
/// instance q matching Qv, every bucket containing q, and every s in the
/// S-set, the variable of P(q, s, B); Zero-invariants are skipped. A
/// statement with zero support gets P(Qv) only.
Result<StatementTerms> CompileTerms(
    const knowledge::ConditionalStatement& stmt, size_t stmt_no,
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const data::TupleEncoder* qi_encoder, const QiPostings* qi_postings,
    std::optional<QiPostings>* local_postings) {
  // Resolve Qv to abstract QI instances.
  std::vector<uint32_t> qi_ids;
  if (stmt.abstract_qi.has_value()) {
    if (*stmt.abstract_qi >= table.num_qi_values()) {
      return Status::InvalidArgument(
          "statement " + std::to_string(stmt_no) +
          ": abstract QI instance out of range");
    }
    qi_ids.push_back(*stmt.abstract_qi);
  } else {
    if (qi_encoder == nullptr) {
      return Status::InvalidArgument(
          "statement " + std::to_string(stmt_no) +
          " is in dataset mode but no QI encoder was provided");
    }
    if (qi_postings == nullptr) {
      if (!local_postings->has_value()) {
        *local_postings = QiPostings::Build(*qi_encoder);
      }
      qi_postings = &**local_postings;
    }
    PME_ASSIGN_OR_RETURN(qi_ids,
                         MatchQiInstances(stmt, *qi_encoder, *qi_postings));
  }

  StatementTerms terms;
  // P(Qv) from the published table.
  for (uint32_t q : qi_ids) terms.prob_qv += table.ProbQ(q);
  if (terms.prob_qv <= kZeroTol) return terms;

  // Dedupe the S-set (a repeated code must not double its coefficient).
  const std::set<uint32_t> sa_set(stmt.sa_codes.begin(), stmt.sa_codes.end());
  for (uint32_t q : qi_ids) {
    for (uint32_t b : table.BucketsWithQi(q)) {
      for (uint32_t s : sa_set) {
        const auto var = index.FindVariable(q, s, b);
        if (!var.has_value()) continue;  // Zero-invariant: structurally 0
        terms.vars.push_back(*var);
      }
    }
  }
  // Emitted q-major; each (q, s, b) is one variable, so sorting leaves
  // them strictly ascending.
  std::sort(terms.vars.begin(), terms.vars.end());
  terms.vars.shrink_to_fit();
  return terms;
}

}  // namespace

QiPostings QiPostings::Build(const data::TupleEncoder& encoder) {
  QiPostings out;
  out.positions_.resize(encoder.attrs().size());
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    const Span<const uint32_t> tuple = encoder.Decode(q);
    for (size_t pos = 0; pos < out.positions_.size(); ++pos) {
      std::vector<uint32_t>& offsets = out.positions_[pos].offsets;
      if (tuple[pos] + 2 > offsets.size()) offsets.resize(tuple[pos] + 2, 0);
      ++offsets[tuple[pos] + 1];
    }
  }
  std::vector<std::vector<uint32_t>> cursors;
  for (Position& p : out.positions_) {
    for (size_t v = 1; v < p.offsets.size(); ++v) {
      p.offsets[v] += p.offsets[v - 1];
    }
    p.ids.resize(encoder.size());
    cursors.emplace_back(p.offsets.begin(), p.offsets.end());
  }
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    const Span<const uint32_t> tuple = encoder.Decode(q);
    for (size_t pos = 0; pos < out.positions_.size(); ++pos) {
      out.positions_[pos].ids[cursors[pos][tuple[pos]]++] = q;
    }
  }
  return out;
}

std::pair<const uint32_t*, const uint32_t*> QiPostings::Find(
    size_t position, uint32_t value) const {
  const Position& p = positions_[position];
  if (static_cast<size_t>(value) + 1 >= p.offsets.size()) {
    return {nullptr, nullptr};
  }
  return {p.ids.data() + p.offsets[value], p.ids.data() + p.offsets[value + 1]};
}

Result<std::vector<uint32_t>> MatchQiInstances(
    const knowledge::ConditionalStatement& stmt,
    const data::TupleEncoder& qi_encoder, const QiPostings& qi_postings) {
  if (stmt.attrs.size() != stmt.values.size()) {
    return Status::InvalidArgument(
        "statement attrs/values arity mismatch");
  }
  // Position of each statement attribute inside the encoder's tuple.
  const auto& enc_attrs = qi_encoder.attrs();
  std::vector<size_t> positions(stmt.attrs.size());
  for (size_t i = 0; i < stmt.attrs.size(); ++i) {
    auto it = std::find(enc_attrs.begin(), enc_attrs.end(), stmt.attrs[i]);
    if (it == enc_attrs.end()) {
      return Status::InvalidArgument(
          "statement references attribute " + std::to_string(stmt.attrs[i]) +
          " which is not a quasi-identifier");
    }
    positions[i] = static_cast<size_t>(it - enc_attrs.begin());
  }
  std::vector<uint32_t> matches;
  if (positions.empty()) {  // an empty Qv matches every tuple
    matches.resize(qi_encoder.size());
    std::iota(matches.begin(), matches.end(), 0u);
    return matches;
  }
  // Walk the shortest posting list and keep the candidates whose tuple
  // carries every other (attribute, value) pair too.
  std::pair<const uint32_t*, const uint32_t*> shortest =
      qi_postings.Find(positions[0], stmt.values[0]);
  for (size_t i = 1; i < positions.size(); ++i) {
    const auto list = qi_postings.Find(positions[i], stmt.values[i]);
    if (list.second - list.first < shortest.second - shortest.first) {
      shortest = list;
    }
  }
  for (const uint32_t* it = shortest.first; it != shortest.second; ++it) {
    const Span<const uint32_t> tuple = qi_encoder.Decode(*it);
    bool match = true;
    for (size_t i = 0; i < positions.size() && match; ++i) {
      match = tuple[positions[i]] == stmt.values[i];
    }
    if (match) matches.push_back(*it);
  }
  return matches;
}

StatementTermMemo::StatementTermMemo(size_t byte_budget)
    : byte_budget_(byte_budget) {}

StatementTermMemo::~StatementTermMemo() {
  GetMemoMetrics().bytes->Add(-static_cast<int64_t>(resident_bytes_));
}

size_t StatementTermMemo::EntryBytes(const StatementTerms& terms) {
  constexpr size_t kEntryOverheadBytes = 128;
  return sizeof(StatementTerms) + terms.vars.capacity() * sizeof(uint32_t) +
         kEntryOverheadBytes;
}

std::shared_ptr<const StatementTerms> StatementTermMemo::Find(
    const Hash128& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    GetMemoMetrics().misses->Add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  GetMemoMetrics().hits->Add();
  return it->second.terms;
}

void StatementTermMemo::Insert(const Hash128& key,
                               std::shared_ptr<const StatementTerms> terms) {
  const size_t bytes = EntryBytes(*terms);
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t delta = static_cast<int64_t>(bytes);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    const size_t replaced = EntryBytes(*it->second.terms);
    resident_bytes_ -= replaced;
    delta -= static_cast<int64_t>(replaced);
    it->second.terms = std::move(terms);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(terms), lru_.begin()});
  }
  resident_bytes_ += bytes;
  while (resident_bytes_ > byte_budget_ && !lru_.empty()) {
    const auto victim = entries_.find(lru_.back());
    const size_t evicted = EntryBytes(*victim->second.terms);
    resident_bytes_ -= evicted;
    delta -= static_cast<int64_t>(evicted);
    entries_.erase(victim);
    lru_.pop_back();
  }
  GetMemoMetrics().bytes->Add(delta);
}

size_t StatementTermMemo::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

size_t StatementTermMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Result<CompiledKnowledge> CompileKnowledge(
    const knowledge::KnowledgeBase& kb,
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const data::TupleEncoder* qi_encoder, const QiPostings* qi_postings,
    StatementTermMemo* memo) {
  CompiledKnowledge out;
  std::optional<QiPostings> local_postings;
  size_t stmt_no = 0;
  for (const auto& stmt : kb.conditionals()) {
    ++stmt_no;
    if (stmt.probability < 0.0 || stmt.probability > 1.0 + kZeroTol) {
      return Status::InvalidArgument(
          "statement " + std::to_string(stmt_no) +
          ": probability outside [0, 1]");
    }
    std::shared_ptr<const StatementTerms> terms;
    Hash128 key;
    if (memo != nullptr) {
      key = StatementTermKey(stmt);
      terms = memo->Find(key);
      if (terms != nullptr) ++out.memo_hits;
    }
    if (terms == nullptr) {
      PME_ASSIGN_OR_RETURN(
          StatementTerms fresh,
          CompileTerms(stmt, stmt_no, table, index, qi_encoder, qi_postings,
                       &local_postings));
      terms = std::make_shared<const StatementTerms>(std::move(fresh));
      if (memo != nullptr) memo->Insert(key, terms);
    }

    if (terms->prob_qv <= kZeroTol) {
      ++out.num_vacuous;  // zero support: statement constrains nothing
      continue;
    }

    LinearConstraint c;
    c.source = ConstraintSource::kBackground;
    c.rel = stmt.rel;
    c.rhs = stmt.probability * terms->prob_qv;
    c.label = stmt.label.empty()
                  ? "bk#" + std::to_string(stmt_no)
                  : stmt.label;
    if (terms->vars.empty()) {
      // All terms are structurally zero, so the LHS is identically 0.
      if (c.rel != Relation::kLe && c.rhs > kZeroTol) {
        return Status::Infeasible(
            "statement '" + c.label +
            "' asserts positive probability over term combinations that "
            "never co-occur in any bucket");
      }
      continue;  // 0 = 0 (or 0 <= rhs): trivially satisfied
    }
    c.vars = terms->vars;
    c.coefs.assign(c.vars.size(), 1.0);
    out.constraints.push_back(std::move(c));
  }
  return out;
}

}  // namespace pme::constraints
