#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "xml/writer.h"
#include "xpath/printer.h"

namespace smoqebench {

namespace {

using smoqe::policy::Annotation;
using smoqe::policy::Policy;
using smoqe::policy::RoleId;

const char* const kDiagnoses[] = {
    "heart disease", "lung disease", "brain disease", "diabetes",
    "influenza",     "asthma",       "arthritis",     "migraine",
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "inputs: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace

std::string HospitalXml(int patients, uint64_t seed) {
  smoqe::gen::HospitalParams params;
  params.patients = patients;
  params.seed = seed;
  return smoqe::xml::WriteXml(smoqe::gen::GenerateHospital(params));
}

std::vector<std::string> ViewQueryMix(uint64_t seed) {
  // Eight diagnosis-parameterized shapes (filters under Kleene star, nested
  // filters, negation) times the eight diagnosis constants, plus unfiltered
  // navigation.
  static const char* const kShapes[] = {
      "patient[record/diagnosis/text() = '%s']/record/diagnosis",
      "patient/(parent/patient)*[record/diagnosis/text() = '%s']",
      "patient[parent/patient/record/diagnosis/text() = '%s']",
      "patient[*//record/diagnosis/text() = '%s']",
      "patient/parent/patient[record/diagnosis/text() = '%s']/record",
      "(patient/parent)*/patient[record/diagnosis/text() = '%s']/record",
      "patient[record/empty and record/diagnosis/text() = '%s']",
      "patient[not(record/diagnosis/text() = '%s')]/parent/patient",
  };
  std::vector<std::string> queries = {
      "patient/record/diagnosis",
      "//diagnosis",
      "patient/(parent/patient)*/record/empty",
      "patient[parent]/record",
  };
  char buf[256];
  for (const char* shape : kShapes) {
    for (const char* diagnosis : kDiagnoses) {
      std::snprintf(buf, sizeof(buf), shape, diagnosis);
      queries.emplace_back(buf);
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(queries.begin(), queries.end(), rng);
  return queries;
}

Policy TenantPolicy(int roles, uint64_t seed) {
  Policy p(smoqe::gen::HospitalDtd());
  const smoqe::dtd::Dtd& d = p.source_dtd();
  static const char* const kConds[] = {
      "pname", "not(test)", "type", "diagnosis[text() = 'heart disease']",
      "address/city[text() = 'Edinburgh']"};
  for (int r = 0; r < roles; ++r) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(r));
    std::vector<std::string> parents;
    if (r > 0 && rng() % 4 == 0) {
      parents.push_back("role" + std::to_string(rng() % r));
    }
    auto role = p.AddRole("role" + std::to_string(r), parents);
    if (!role.ok()) Die("AddRole: " + role.status().ToString());
    for (smoqe::dtd::TypeId a = 0; a < d.num_types(); ++a) {
      for (smoqe::dtd::TypeId b : d.ChildTypes(a)) {
        Annotation ann;
        switch (rng() % 16) {
          case 0:
            ann = Annotation::Deny();
            break;
          case 1:
          case 2: {
            auto cond = Annotation::If(kConds[rng() % 5]);
            if (!cond.ok()) Die("If: " + cond.status().ToString());
            ann = cond.take();
            break;
          }
          case 3:
            ann = Annotation::Allow();
            break;
          default:
            continue;  // unannotated: resolves through inheritance
        }
        smoqe::Status st = p.Annotate(role.value(), d.type_name(a),
                                      d.type_name(b), std::move(ann));
        if (!st.ok()) Die("Annotate: " + st.ToString());
      }
    }
  }
  return p;
}

ZipfRoles::ZipfRoles(int roles, double s, uint64_t seed) {
  double sum = 0;
  cdf_.reserve(roles);
  for (int k = 1; k <= roles; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
  rank_to_role_.resize(roles);
  for (int r = 0; r < roles; ++r) rank_to_role_[r] = r;
  std::mt19937_64 rng(seed);
  std::shuffle(rank_to_role_.begin(), rank_to_role_.end(), rng);
}

RoleId ZipfRoles::Next(std::mt19937_64* rng) const {
  const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
  size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  if (rank >= cdf_.size()) rank = cdf_.size() - 1;
  return rank_to_role_[rank];
}

TenantStream::TenantStream(const ZipfRoles& roles, uint64_t seed)
    : roles_(roles), rng_(seed) {
  const smoqe::dtd::Dtd dtd = smoqe::gen::HospitalDtd();
  for (smoqe::dtd::TypeId t = 0; t < dtd.num_types(); ++t) {
    params_.labels.push_back(dtd.type_name(t));
  }
  params_.text_values = {"heart disease", "diabetes",   "Edinburgh",
                         "Madison",       "cardiology", "oncology"};
  params_.max_depth = 3;
  params_.allow_position = false;  // untranslatable through views
}

std::pair<RoleId, std::string> TenantStream::Next() {
  const RoleId role = roles_.Next(&rng_);
  return {role, smoqe::xpath::ToString(smoqe::gen::RandomQuery(params_, &rng_))};
}

smoqe::xml::TreeDelta DeltaStream::Next(const smoqe::xml::Tree& current,
                                        uint64_t version) {
  using smoqe::xml::NodeId;
  std::vector<NodeId> diagnoses;
  // Preorder walk over first-child / next-sibling / parent links: document
  // order without an explicit stack.
  const NodeId root = current.root();
  NodeId n = root;
  for (;;) {
    if (current.is_element(n) && current.label_name(n) == "diagnosis") {
      diagnoses.push_back(n);
    }
    if (current.first_child(n) != smoqe::xml::kNullNode) {
      n = current.first_child(n);
      continue;
    }
    while (n != root && current.next_sibling(n) == smoqe::xml::kNullNode) {
      n = current.parent(n);
    }
    if (n == root) break;
    n = current.next_sibling(n);
  }
  if (diagnoses.empty()) Die("document has no diagnosis element");
  const NodeId victim = diagnoses[rng_() % diagnoses.size()];
  smoqe::xml::Fragment fragment;
  fragment.items.push_back({false, -1, "diagnosis"});
  fragment.items.push_back({true, 0, kDiagnoses[rng_() % 8]});
  smoqe::xml::TreeDelta delta(version);
  delta.AddDelete(victim);
  delta.AddInsert(current.parent(victim), current.child_index(victim),
                  std::move(fragment));
  return delta;
}

}  // namespace smoqebench
