// smoqe_cli: command-line front end for the library.
//
//   smoqe_cli --doc FILE --query 'Xreg'                  evaluate directly
//   smoqe_cli --doc FILE --view SPEC --query 'Xreg'      rewrite through a view
//   options: --engine hype|opthype|opthype-c|naive   (default hype)
//            --show-rewritten                         print the explicit Xreg
//            --stats                                  print evaluation stats
//            --dot                                    dump the MFA as graphviz
//
// Answers are printed as XML, one subtree per line group, in document order.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "automata/compiler.h"
#include "automata/optimizer.h"
#include "eval/naive_evaluator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "rewrite/direct_rewriter.h"
#include "rewrite/rewriter.h"
#include "view/view_parser.h"
#include "xml/doc_plane.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --doc FILE --query XREG [--view SPECFILE]\n"
               "          [--engine hype|opthype|opthype-c|naive]\n"
               "          [--show-rewritten] [--stats] [--dot]\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string doc_path, query_text, view_path, engine = "hype";
  bool show_rewritten = false, show_stats = false, show_dot = false;
  for (int i = 1; i < argc; ++i) {
    auto arg_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = arg_value("--doc")) doc_path = v;
    else if (const char* v = arg_value("--query")) query_text = v;
    else if (const char* v = arg_value("--view")) view_path = v;
    else if (const char* v = arg_value("--engine")) engine = v;
    else if (std::strcmp(argv[i], "--show-rewritten") == 0) show_rewritten = true;
    else if (std::strcmp(argv[i], "--stats") == 0) show_stats = true;
    else if (std::strcmp(argv[i], "--dot") == 0) show_dot = true;
    else return Usage(argv[0]);
  }
  if (doc_path.empty() || query_text.empty()) return Usage(argv[0]);

  std::string doc_text;
  if (!ReadFile(doc_path, &doc_text)) {
    std::fprintf(stderr, "cannot read %s\n", doc_path.c_str());
    return 1;
  }
  auto tree = smoqe::xml::ParseXml(doc_text);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  auto query = smoqe::xpath::ParseQuery(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  smoqe::automata::Mfa mfa;
  if (!view_path.empty()) {
    std::string view_text;
    if (!ReadFile(view_path, &view_text)) {
      std::fprintf(stderr, "cannot read %s\n", view_path.c_str());
      return 1;
    }
    auto view = smoqe::view::ParseView(view_text);
    if (!view.ok()) {
      std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
      return 1;
    }
    auto rewritten = smoqe::rewrite::RewriteToMfa(query.value(), view.value());
    if (!rewritten.ok()) {
      std::fprintf(stderr, "%s\n", rewritten.status().ToString().c_str());
      return 1;
    }
    mfa = smoqe::automata::TrimMfa(rewritten.value());
    if (show_rewritten) {
      auto direct = smoqe::rewrite::DirectRewrite(query.value(), view.value());
      if (direct.ok()) {
        std::printf("rewritten query: %s\n",
                    smoqe::xpath::ToString(direct.value()).c_str());
      }
    }
  } else {
    mfa = smoqe::automata::CompileQuery(query.value());
  }
  if (show_dot) std::printf("%s", mfa.ToDot().c_str());

  std::vector<smoqe::xml::NodeId> answers;
  smoqe::hype::EvalStats stats;
  if (engine == "naive") {
    if (!view_path.empty()) {
      std::fprintf(stderr, "--engine naive does not support --view\n");
      return 1;
    }
    answers = smoqe::eval::NaiveEvaluator(tree.value())
                  .Eval(query.value(), tree.value().root());
  } else {
    // One plane serves both the index build and the evaluator.
    const smoqe::xml::DocPlane plane =
        smoqe::xml::DocPlane::Build(tree.value());
    smoqe::hype::SubtreeLabelIndex index;
    smoqe::hype::EvalOptions options;
    options.plane = &plane;
    if (engine == "opthype") {
      index = smoqe::hype::SubtreeLabelIndex::Build(
          plane, smoqe::hype::SubtreeLabelIndex::Mode::kFull);
      options.index = &index;
    } else if (engine == "opthype-c") {
      index = smoqe::hype::SubtreeLabelIndex::Build(
          plane, smoqe::hype::SubtreeLabelIndex::Mode::kCompressed);
      options.index = &index;
    } else if (engine != "hype") {
      return Usage(argv[0]);
    }
    smoqe::hype::HypeEvaluator eval(tree.value(), mfa, options);
    answers = eval.Eval(tree.value().root());
    stats = eval.stats();
  }

  std::printf("%zu answer(s)\n", answers.size());
  for (smoqe::xml::NodeId n : answers) {
    std::printf("%s\n", smoqe::xml::WriteXml(tree.value(), n).c_str());
  }
  if (show_stats) {
    std::printf("visited %lld/%lld elements (%.1f%% pruned), cans %lld "
                "vertices / %lld edges\n",
                static_cast<long long>(stats.elements_visited),
                static_cast<long long>(stats.elements_total),
                100.0 * stats.PrunedFraction(),
                static_cast<long long>(stats.cans_vertices),
                static_cast<long long>(stats.cans_edges));
  }
  return 0;
}
