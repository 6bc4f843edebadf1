#include "core/individual_model.h"

#include <algorithm>
#include <map>
#include <set>

#include "constraints/system.h"
#include "maxent/problem.h"

namespace pme::core {

Result<IndividualModel> IndividualModel::Build(
    const anonymize::PseudonymTable* pseudonyms) {
  if (pseudonyms == nullptr) {
    return Status::InvalidArgument("pseudonym table must not be null");
  }
  IndividualModel model;
  model.pseudonyms_ = pseudonyms;
  const auto& table = pseudonyms->table();
  const size_t num_pseud = pseudonyms->num_pseudonyms();
  const double n = static_cast<double>(table.num_records());

  model.pseudonym_offsets_.resize(num_pseud + 1);
  for (uint32_t i = 0; i < num_pseud; ++i) {
    model.pseudonym_offsets_[i] = static_cast<uint32_t>(model.terms_.size());
    const uint32_t q = pseudonyms->QiOf(i);
    // Each bucket's distinct SAs in sorted order: a stable variable layout.
    for (uint32_t b : table.BucketsWithQi(q)) {
      for (const auto& [s, cnt] : table.BucketSaCounts(b)) {
        model.terms_.push_back(IndividualTerm{i, s, b});
      }
    }
  }
  model.pseudonym_offsets_[num_pseud] =
      static_cast<uint32_t>(model.terms_.size());

  // Invariant 1: each pseudonym carries exactly one record's mass.
  for (uint32_t i = 0; i < num_pseud; ++i) {
    constraints::LinearConstraint c;
    c.source = constraints::ConstraintSource::kQiInvariant;
    c.rel = constraints::Relation::kEq;
    c.rhs = 1.0 / n;
    c.label = "pseudonym " + pseudonyms->Name(i);
    for (uint32_t v = model.pseudonym_offsets_[i];
         v < model.pseudonym_offsets_[i + 1]; ++v) {
      c.vars.push_back(v);
      c.coefs.push_back(1.0);
    }
    model.invariants_.push_back(std::move(c));
  }

  // Invariants 2 and 3: per-(q, b) and per-(s, b) published counts.
  std::map<std::pair<uint32_t, uint32_t>, constraints::LinearConstraint> qb;
  std::map<std::pair<uint32_t, uint32_t>, constraints::LinearConstraint> sb;
  for (uint32_t v = 0; v < model.terms_.size(); ++v) {
    const auto& t = model.terms_[v];
    const uint32_t q = pseudonyms->QiOf(t.pseudonym);
    auto& cq = qb[{q, t.bucket}];
    cq.vars.push_back(v);
    cq.coefs.push_back(1.0);
    auto& cs = sb[{t.sa, t.bucket}];
    cs.vars.push_back(v);
    cs.coefs.push_back(1.0);
  }
  for (auto& [key, c] : qb) {
    c.source = constraints::ConstraintSource::kQiInvariant;
    c.rel = constraints::Relation::kEq;
    c.rhs = table.ProbQB(key.first, key.second);
    c.label = "QI " + table.QiName(key.first) + " in b" +
              std::to_string(key.second + 1);
    model.invariants_.push_back(std::move(c));
  }
  for (auto& [key, c] : sb) {
    c.source = constraints::ConstraintSource::kSaInvariant;
    c.rel = constraints::Relation::kEq;
    c.rhs = table.ProbSB(key.first, key.second);
    c.label = "SA " + table.SaName(key.first) + " in b" +
              std::to_string(key.second + 1);
    model.invariants_.push_back(std::move(c));
  }
  return model;
}

Result<uint32_t> IndividualModel::VariableId(uint32_t pseudonym, uint32_t sa,
                                             uint32_t bucket) const {
  if (pseudonym >= pseudonyms_->num_pseudonyms()) {
    return Status::InvalidArgument("pseudonym out of range");
  }
  for (uint32_t v = pseudonym_offsets_[pseudonym];
       v < pseudonym_offsets_[pseudonym + 1]; ++v) {
    if (terms_[v].sa == sa && terms_[v].bucket == bucket) return v;
  }
  return Status::NotFound("P(i,q,s,b) is not materialized");
}

Status IndividualModel::AddKnowledge(const knowledge::KnowledgeBase& kb) {
  const auto& table = pseudonyms_->table();
  const double n = static_cast<double>(table.num_records());

  for (const auto& stmt : kb.individuals()) {
    constraints::LinearConstraint c;
    c.source = constraints::ConstraintSource::kIndividual;
    c.rel = stmt.rel;
    c.rhs = stmt.probability / n;
    c.label = stmt.label.empty() ? "individual knowledge" : stmt.label;
    for (const auto& [pseudonym, sa] : stmt.terms) {
      if (pseudonym >= pseudonyms_->num_pseudonyms()) {
        return Status::InvalidArgument("statement references an unknown "
                                       "pseudonym");
      }
      for (uint32_t b : pseudonyms_->CandidateBuckets(pseudonym)) {
        auto var = VariableId(pseudonym, sa, b);
        if (!var.ok()) continue;  // s not in that bucket: structurally zero
        c.vars.push_back(var.value());
        c.coefs.push_back(1.0);
      }
    }
    if (c.vars.empty()) {
      if (c.rel != knowledge::Relation::kLe && c.rhs > 1e-12) {
        return Status::Infeasible(
            "individual statement '" + c.label +
            "' asserts positive probability over impossible combinations");
      }
      continue;
    }
    knowledge_.push_back(std::move(c));
  }

  // Abstract-mode distribution statements aggregate over pseudonyms:
  // Σ_i∈pseud(q) P(i, q, s, b) plays the role of P(q, s, b).
  for (const auto& stmt : kb.conditionals()) {
    if (!stmt.abstract_qi.has_value()) {
      return Status::InvalidArgument(
          "IndividualModel supports only abstract-mode conditional "
          "statements; resolve dataset-mode statements first");
    }
    const uint32_t q = *stmt.abstract_qi;
    if (q >= table.num_qi_values()) {
      return Status::InvalidArgument("abstract QI instance out of range");
    }
    std::set<uint32_t> sa_set(stmt.sa_codes.begin(), stmt.sa_codes.end());
    constraints::LinearConstraint c;
    c.source = constraints::ConstraintSource::kBackground;
    c.rel = stmt.rel;
    c.rhs = stmt.probability * table.ProbQ(q);
    c.label = stmt.label.empty() ? "bk (individual space)" : stmt.label;
    for (uint32_t i : pseudonyms_->PseudonymsOf(q)) {
      for (uint32_t b : pseudonyms_->CandidateBuckets(i)) {
        for (uint32_t s : sa_set) {
          auto var = VariableId(i, s, b);
          if (!var.ok()) continue;
          c.vars.push_back(var.value());
          c.coefs.push_back(1.0);
        }
      }
    }
    if (c.vars.empty()) {
      if (c.rel != knowledge::Relation::kLe && c.rhs > 1e-12) {
        return Status::Infeasible("statement '" + c.label +
                                  "' contradicts the published table");
      }
      continue;
    }
    knowledge_.push_back(std::move(c));
  }
  return Status::Ok();
}

Result<maxent::SolverResult> IndividualModel::Solve(
    const maxent::SolverOptions& options) const {
  constraints::ConstraintSystem system(terms_.size());
  for (const auto& c : invariants_) system.Add(c);
  for (const auto& c : knowledge_) system.Add(c);
  PME_ASSIGN_OR_RETURN(auto problem, maxent::BuildProblem(system));
  return maxent::Solve(problem, options);
}

std::vector<double> IndividualModel::PosteriorFor(
    uint32_t pseudonym, const std::vector<double>& p) const {
  const auto& table = pseudonyms_->table();
  std::vector<double> posterior(table.num_sa_values(), 0.0);
  const double n = static_cast<double>(table.num_records());
  for (uint32_t v = pseudonym_offsets_[pseudonym];
       v < pseudonym_offsets_[pseudonym + 1]; ++v) {
    posterior[terms_[v].sa] += p[v] * n;
  }
  return posterior;
}

}  // namespace pme::core
