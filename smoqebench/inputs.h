// Seeded inputs of the serving benchmark. Everything the program under test
// receives -- documents (as XML text), query texts, the tenant policy, role
// and query streams, and the write stream -- is a pure function of the
// workload seed, so two runs with one seed feed the program identical
// inputs.
#ifndef SMOQEBENCH_INPUTS_H_
#define SMOQEBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gen/query_generator.h"
#include "policy/policy.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace smoqebench {

/// A hospital document (the paper's Fig. 1(a) DTD) serialized as XML text.
std::string HospitalXml(int patients, uint64_t seed);

/// The distinct view queries posed against σ0's view DTD (Fig. 1(b)):
/// Kleene star, filters and every diagnosis constant, in a seeded order.
/// At least 64 texts, all distinct.
std::vector<std::string> ViewQueryMix(uint64_t seed);

/// A policy over the hospital DTD with `roles` roles: sparse seeded deny,
/// conditional and allow annotations, a quarter of the roles inheriting
/// from an earlier one. No role hides the root.
smoqe::policy::Policy TenantPolicy(int roles, uint64_t seed);

/// Zipf(s)-distributed role ids over [0, roles); which roles are hot is
/// itself seeded.
class ZipfRoles {
 public:
  ZipfRoles(int roles, double s, uint64_t seed);
  smoqe::policy::RoleId Next(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<smoqe::policy::RoleId> rank_to_role_;
};

/// One client's stream of (role, fresh random query) requests:
/// gen::RandomQuery over the source DTD's labels and text constants.
class TenantStream {
 public:
  TenantStream(const ZipfRoles& roles, uint64_t seed);
  std::pair<smoqe::policy::RoleId, std::string> Next();

 private:
  const ZipfRoles& roles_;
  std::mt19937_64 rng_;
  smoqe::gen::QueryGenParams params_;
};

/// Seeded, size-preserving writes: each delta replaces one diagnosis
/// element (doc-order index drawn from the seed) by a copy carrying a seeded
/// diagnosis text, at the same child slot. Diagnoses decide view membership
/// (σ0 exposes heart-disease patients), so writes move answers.
class DeltaStream {
 public:
  explicit DeltaStream(uint64_t seed) : rng_(seed) {}
  smoqe::xml::TreeDelta Next(const smoqe::xml::Tree& current,
                             uint64_t version);

 private:
  std::mt19937_64 rng_;
};

}  // namespace smoqebench

#endif  // SMOQEBENCH_INPUTS_H_
