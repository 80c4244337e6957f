// SMOQE as a stand-alone regular XPath engine (the paper's other headline:
// "HyPE is the first practical algorithm for evaluating regular XPath").
//
// Runs the query of Example 2.1 -- heart disease recurring in every *other*
// generation, inexpressible in plain XPath -- over growing documents with all
// three HyPE variants and reports timings and pruning, a miniature Fig. 9.

#include <chrono>
#include <cstdio>

#include "automata/compiler.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "xpath/parser.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  auto query = smoqe::xpath::ParseQuery(smoqe::gen::kQueryExample21);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("query (Example 2.1): heart disease skipping a generation\n\n");
  smoqe::automata::Mfa mfa = smoqe::automata::CompileQuery(query.value());
  std::printf("MFA: %d NFA states, %d AFA states\n\n", mfa.num_nfa_states(),
              mfa.num_afa_states());
  std::printf("%-10s %-10s %-12s %-12s %-12s %-10s\n", "patients", "elements",
              "HyPE(ms)", "OptHyPE(ms)", "OptC(ms)", "answers");

  for (int patients : {500, 1000, 2000, 4000}) {
    smoqe::gen::HospitalParams params;
    params.patients = patients;
    params.max_ancestor_depth = 6;
    params.heart_disease_prob = 0.3;
    params.seed = 11;
    smoqe::xml::Tree tree = smoqe::gen::GenerateHospital(params);

    auto t0 = std::chrono::steady_clock::now();
    smoqe::hype::HypeEvaluator plain(tree, mfa);
    auto answers = plain.Eval(tree.root());
    double hype_ms = MillisSince(t0);

    smoqe::hype::SubtreeLabelIndex full = smoqe::hype::SubtreeLabelIndex::Build(
        tree, smoqe::hype::SubtreeLabelIndex::Mode::kFull);
    smoqe::hype::EvalOptions opt;
    opt.index = &full;
    t0 = std::chrono::steady_clock::now();
    smoqe::hype::HypeEvaluator opt_eval(tree, mfa, opt);
    auto opt_answers = opt_eval.Eval(tree.root());
    double opt_ms = MillisSince(t0);

    smoqe::hype::SubtreeLabelIndex compressed =
        smoqe::hype::SubtreeLabelIndex::Build(
            tree, smoqe::hype::SubtreeLabelIndex::Mode::kCompressed);
    smoqe::hype::EvalOptions optc;
    optc.index = &compressed;
    t0 = std::chrono::steady_clock::now();
    smoqe::hype::HypeEvaluator optc_eval(tree, mfa, optc);
    auto optc_answers = optc_eval.Eval(tree.root());
    double optc_ms = MillisSince(t0);

    if (opt_answers != answers || optc_answers != answers) {
      std::fprintf(stderr, "variant disagreement -- bug!\n");
      return 1;
    }
    std::printf("%-10d %-10d %-12.2f %-12.2f %-12.2f %-10zu\n", patients,
                tree.CountElements(), hype_ms, opt_ms, optc_ms,
                answers.size());
    std::printf("%-10s pruned: HyPE %.1f%%, OptHyPE %.1f%% "
                "(index: %.0f KB full, %.0f KB compressed)\n",
                "", 100.0 * plain.stats().PrunedFraction(),
                100.0 * opt_eval.stats().PrunedFraction(),
                static_cast<double>(full.MemoryBytes()) / 1024.0,
                static_cast<double>(compressed.MemoryBytes()) / 1024.0);
  }
  return 0;
}
