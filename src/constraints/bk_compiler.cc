#include "constraints/bk_compiler.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>

namespace pme::constraints {
namespace {

constexpr double kZeroTol = 1e-12;

}  // namespace

QiPostings QiPostings::Build(const data::TupleEncoder& encoder) {
  QiPostings out;
  out.positions_.resize(encoder.attrs().size());
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    const std::vector<uint32_t>& tuple = encoder.Decode(q);
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
    const std::vector<uint32_t>& tuple = encoder.Decode(q);
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
  // Intersect the posting lists, shortest first.
  std::vector<std::pair<const uint32_t*, const uint32_t*>> lists;
  for (size_t i = 0; i < positions.size(); ++i) {
    lists.push_back(qi_postings.Find(positions[i], stmt.values[i]));
  }
  std::sort(lists.begin(), lists.end(), [](const auto& a, const auto& b) {
    return a.second - a.first < b.second - b.first;
  });
  matches.assign(lists[0].first, lists[0].second);
  for (size_t k = 1; k < lists.size(); ++k) {
    const uint32_t* it = lists[k].first;
    size_t kept = 0;
    for (const uint32_t q : matches) {
      it = std::lower_bound(it, lists[k].second, q);
      if (it == lists[k].second) break;
      if (*it == q) matches[kept++] = q;
    }
    matches.resize(kept);
  }
  return matches;
}

Result<CompiledKnowledge> CompileKnowledge(
    const knowledge::KnowledgeBase& kb,
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const data::TupleEncoder* qi_encoder, const QiPostings* qi_postings) {
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
        local_postings = QiPostings::Build(*qi_encoder);
        qi_postings = &*local_postings;
      }
      PME_ASSIGN_OR_RETURN(qi_ids,
                           MatchQiInstances(stmt, *qi_encoder, *qi_postings));
    }

    // P(Qv) from the published table.
    double prob_qv = 0.0;
    for (uint32_t q : qi_ids) prob_qv += table.ProbQ(q);
    if (prob_qv <= kZeroTol) {
      ++out.num_vacuous;  // zero support: statement constrains nothing
      continue;
    }

    // Dedupe the S-set (a repeated code must not double its coefficient).
    std::set<uint32_t> sa_set(stmt.sa_codes.begin(), stmt.sa_codes.end());

    LinearConstraint c;
    c.source = ConstraintSource::kBackground;
    c.rel = stmt.rel;
    c.rhs = stmt.probability * prob_qv;
    c.label = stmt.label.empty()
                  ? "bk#" + std::to_string(stmt_no)
                  : stmt.label;
    for (uint32_t q : qi_ids) {
      for (uint32_t b : table.BucketsWithQi(q)) {
        for (uint32_t s : sa_set) {
          const auto var = index.FindVariable(q, s, b);
          if (!var.has_value()) continue;  // Zero-invariant: structurally 0
          c.vars.push_back(*var);
          c.coefs.push_back(1.0);
        }
      }
    }
    if (c.vars.empty()) {
      // All terms are structurally zero, so the LHS is identically 0.
      if (c.rel != Relation::kLe && c.rhs > kZeroTol) {
        return Status::Infeasible(
            "statement '" + c.label +
            "' asserts positive probability over term combinations that "
            "never co-occur in any bucket");
      }
      continue;  // 0 = 0 (or 0 <= rhs): trivially satisfied
    }
    out.constraints.push_back(std::move(c));
  }
  return out;
}

}  // namespace pme::constraints
