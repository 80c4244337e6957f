// Unit suite for the policy plane (src/policy/): annotation resolution under
// role inheritance (local wins, deny-overrides, condition conjunction, the
// open default), root visibility, the policy parser, and the role compiler's
// derived views -- including the satellite edge cases: diamond inheritance
// with conflicting allow/deny, deny-overrides through diamonds, and policies
// hiding the root.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "eval/naive_evaluator.h"
#include "gen/generic_generator.h"
#include "mutation_fuzz.h"
#include "policy/policy.h"
#include "policy/policy_parser.h"
#include "policy/role_catalog.h"
#include "policy/role_compiler.h"
#include "view/materializer.h"
#include "xml/tree.h"
#include "xpath/printer.h"

namespace smoqe {
namespace {

using policy::AccessKind;
using policy::Annotation;
using policy::CompileRole;
using policy::ParsePolicy;
using policy::Policy;
using policy::RoleId;

dtd::Dtd TestDtd() {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.take();
}

dtd::TypeId T(const Policy& p, const char* name) {
  dtd::TypeId t = p.source_dtd().FindType(name);
  EXPECT_NE(t, dtd::kNoType) << name;
  return t;
}

// ---------------------------------------------------------------------------
// Annotation / resolution

TEST(PolicyAnnotationTest, IfParsesAndNormalizes) {
  auto ann = Annotation::If("t [ text() = 'alpha' ]");
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_EQ(ann.value().kind, AccessKind::kCond);
  ASSERT_NE(ann.value().cond, nullptr);
  // Normalized spelling: whitespace canonicalized by the printer.
  EXPECT_EQ(ann.value().cond_text, "t[text() = 'alpha']");
}

TEST(PolicyAnnotationTest, IfRejectsPositionAndGarbage) {
  EXPECT_FALSE(Annotation::If("position() = 1").ok());
  EXPECT_FALSE(Annotation::If("t[").ok());
}

TEST(PolicyResolutionTest, LocalAnnotationWinsOverParents) {
  Policy p(TestDtd());
  RoleId base = p.AddRole("base").take();
  ASSERT_TRUE(p.Annotate(base, "a", "b", Annotation::Deny()).ok());
  RoleId child = p.AddRole("child", {"base"}).take();
  ASSERT_TRUE(p.Annotate(child, "a", "b", Annotation::Allow()).ok());

  EXPECT_EQ(p.Effective(base, T(p, "a"), T(p, "b")).kind, AccessKind::kDeny);
  // The child's local allow shadows the inherited deny on that edge...
  EXPECT_EQ(p.Effective(child, T(p, "a"), T(p, "b")).kind, AccessKind::kAllow);
  // ...and an unannotated edge stays at the open default.
  EXPECT_EQ(p.Effective(child, T(p, "b"), T(p, "c")).kind, AccessKind::kAllow);
}

TEST(PolicyResolutionTest, DiamondWithConflictingAllowDenyDenies) {
  // The satellite edge case: top -> {lenient, strict} -> bottom, where
  // lenient allows (a, b) and strict denies it. Deny-overrides: bottom
  // must deny, regardless of parent declaration order.
  Policy p(TestDtd());
  ASSERT_TRUE(p.AddRole("top").ok());
  RoleId lenient = p.AddRole("lenient", {"top"}).take();
  RoleId strict = p.AddRole("strict", {"top"}).take();
  ASSERT_TRUE(p.Annotate(lenient, "a", "b", Annotation::Allow()).ok());
  ASSERT_TRUE(p.Annotate(strict, "a", "b", Annotation::Deny()).ok());

  RoleId b1 = p.AddRole("bottom1", {"lenient", "strict"}).take();
  RoleId b2 = p.AddRole("bottom2", {"strict", "lenient"}).take();
  EXPECT_EQ(p.Effective(b1, T(p, "a"), T(p, "b")).kind, AccessKind::kDeny);
  EXPECT_EQ(p.Effective(b2, T(p, "a"), T(p, "b")).kind, AccessKind::kDeny);
}

TEST(PolicyResolutionTest, InheritedConditionsConjoinAndDedup) {
  Policy p(TestDtd());
  RoleId p1 = p.AddRole("p1").take();
  RoleId p2 = p.AddRole("p2").take();
  ASSERT_TRUE(p.Annotate(p1, "a", "b", Annotation::If("t").take()).ok());
  ASSERT_TRUE(p.Annotate(p2, "a", "b", Annotation::If("not(c)").take()).ok());

  RoleId both = p.AddRole("both", {"p1", "p2"}).take();
  Annotation eff = p.Effective(both, T(p, "a"), T(p, "b"));
  EXPECT_EQ(eff.kind, AccessKind::kCond);
  EXPECT_EQ(eff.cond_text, "t and not(c)");

  // A diamond inheriting the SAME condition through two paths must not
  // square it: dedup is by normalized text.
  RoleId q1 = p.AddRole("q1", {"p1"}).take();
  RoleId q2 = p.AddRole("q2", {"p1"}).take();
  (void)q1;
  (void)q2;
  RoleId diamond = p.AddRole("diamond", {"q1", "q2"}).take();
  EXPECT_EQ(p.Effective(diamond, T(p, "a"), T(p, "b")).cond_text, "t");

  // Deny still overrides any conditions.
  RoleId p3 = p.AddRole("p3").take();
  ASSERT_TRUE(p.Annotate(p3, "a", "b", Annotation::Deny()).ok());
  RoleId mixed = p.AddRole("mixed", {"p1", "p3", "p2"}).take();
  EXPECT_EQ(p.Effective(mixed, T(p, "a"), T(p, "b")).kind, AccessKind::kDeny);
}

TEST(PolicyResolutionTest, RootVisibilityInheritsWithDenyOverrides) {
  Policy p(TestDtd());
  RoleId open = p.AddRole("open").take();
  RoleId shut = p.AddRole("shut").take();
  ASSERT_TRUE(p.AnnotateRoot(shut, Annotation::Deny()).ok());
  EXPECT_TRUE(p.RootVisible(open));
  EXPECT_FALSE(p.RootVisible(shut));

  // Any hidden parent hides the child...
  RoleId child = p.AddRole("child", {"open", "shut"}).take();
  EXPECT_FALSE(p.RootVisible(child));
  // ...unless the child pins the root locally.
  RoleId rebel = p.AddRole("rebel", {"shut"}).take();
  ASSERT_TRUE(p.AnnotateRoot(rebel, Annotation::Allow()).ok());
  EXPECT_TRUE(p.RootVisible(rebel));
}

TEST(PolicyModelTest, RejectsBadEdgesDuplicatesAndUnknownParents) {
  Policy p(TestDtd());
  RoleId r = p.AddRole("r").take();
  // (r, c) is not an edge of the source DTD.
  EXPECT_FALSE(p.Annotate(r, "r", "c", Annotation::Allow()).ok());
  EXPECT_FALSE(p.Annotate(r, "r", "nosuch", Annotation::Allow()).ok());
  ASSERT_TRUE(p.Annotate(r, "a", "b", Annotation::Allow()).ok());
  EXPECT_FALSE(p.Annotate(r, "a", "b", Annotation::Deny()).ok());
  EXPECT_FALSE(p.AddRole("r").ok());            // duplicate name
  EXPECT_FALSE(p.AddRole("s", {"ghost"}).ok());  // undeclared parent
  EXPECT_FALSE(p.AnnotateRoot(r, Annotation::If("t").take()).ok());
  EXPECT_TRUE(p.Validate().ok());
}

// ---------------------------------------------------------------------------
// Parser

constexpr char kSpec[] = R"(
  // A policy over the property-test DTD.
  policy acl {
    source dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ;
                   c -> a* ; t -> #text ; }
    role staff { }
    role research extends staff {
      deny  b.c ;
      allow a.b when "t[text() = 'alpha']" ;
    }
    role intern extends research {
      root deny ;
    }
  }
)";

TEST(PolicyParserTest, ParsesRolesInheritanceAndConditions) {
  auto parsed = ParsePolicy(kSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Policy& p = parsed.value();
  ASSERT_EQ(p.num_roles(), 3);

  RoleId research = p.FindRole("research");
  ASSERT_NE(research, policy::kNoRole);
  EXPECT_EQ(p.parents(research).size(), 1u);
  EXPECT_EQ(p.Effective(research, T(p, "b"), T(p, "c")).kind,
            AccessKind::kDeny);
  Annotation cond = p.Effective(research, T(p, "a"), T(p, "b"));
  EXPECT_EQ(cond.kind, AccessKind::kCond);
  EXPECT_EQ(cond.cond_text, "t[text() = 'alpha']");

  EXPECT_TRUE(p.RootVisible(p.FindRole("staff")));
  EXPECT_FALSE(p.RootVisible(p.FindRole("intern")));
}

TEST(PolicyParserTest, MutatedSpecsYieldAValueOrAStatus) {
  fuzz::FuzzParser({kSpec}, "{}()[]-><;,*+#\"'=./", 20261023,
                   [](const std::string& spec) { return ParsePolicy(spec); });
}

TEST(PolicyParserTest, RejectsMalformedSpecs) {
  // deny+when is contradictory by design.
  EXPECT_FALSE(ParsePolicy("policy x { source dtd r { r -> t* ; t -> #text ; }"
                           " role r { deny r.t when \"t\" ; } }")
                   .ok());
  // Unknown edge, trailing garbage, unterminated block.
  EXPECT_FALSE(ParsePolicy("policy x { source dtd r { r -> t* ; t -> #text ; }"
                           " role r { allow t.r ; } }")
                   .ok());
  EXPECT_FALSE(ParsePolicy("policy x { source dtd r { r -> t* ; t -> #text ; }"
                           " role r { } } trailing")
                   .ok());
  EXPECT_FALSE(ParsePolicy("policy x { source dtd r { r -> t* ; t -> #text ; }"
                           " role r { ")
                   .ok());
  // No roles at all fails Validate.
  EXPECT_FALSE(
      ParsePolicy("policy x { source dtd r { r -> t* ; t -> #text ; } }").ok());
}

// ---------------------------------------------------------------------------
// Role compiler

TEST(RoleCompilerTest, HiddenRootCompilesToEmptyView) {
  auto parsed = ParsePolicy(kSpec);
  ASSERT_TRUE(parsed.ok());
  auto compiled =
      CompileRole(parsed.value(), parsed.value().FindRole("intern"));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled.value().root_hidden);
  EXPECT_EQ(compiled.value().view, nullptr);
  EXPECT_EQ(compiled.value().visible_types, 0);
}

TEST(RoleCompilerTest, DenyPrunesTheUnreachableRegion) {
  Policy p(TestDtd());
  RoleId r = p.AddRole("r").take();
  // Denying (b, c) removes c entirely: its only in-edge is from b.
  ASSERT_TRUE(p.Annotate(r, "b", "c", Annotation::Deny()).ok());
  auto compiled = CompileRole(p, r);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const view::ViewDef& view = *compiled.value().view;
  EXPECT_EQ(compiled.value().visible_types, 4);  // r a b t
  EXPECT_EQ(view.view_dtd().FindType("c"), dtd::kNoType);
  EXPECT_NE(view.view_dtd().FindType("b"), dtd::kNoType);
  EXPECT_TRUE(view.IsRecursive());  // a -> a* survives
}

TEST(RoleCompilerTest, ChoiceLosingABranchBecomesStarredSequence) {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a + b ; a -> #text ; b -> #text ; }");
  ASSERT_TRUE(d.ok());
  Policy p(d.take());
  RoleId r = p.AddRole("r").take();
  ASSERT_TRUE(p.Annotate(r, "r", "b", Annotation::Deny()).ok());
  auto compiled = CompileRole(p, r);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const dtd::Dtd& vd = compiled.value().view->view_dtd();
  const dtd::Production& prod = vd.production(vd.FindType("r"));
  // One surviving branch of a disjunction: a sequence, starred (the source
  // instance may have chosen the hidden branch, so zero `a`s must be legal).
  ASSERT_EQ(prod.kind, dtd::ContentKind::kSequence);
  ASSERT_EQ(prod.children.size(), 1u);
  EXPECT_TRUE(prod.children[0].starred);
}

TEST(RoleCompilerTest, ConditionalChildIsStarredAndAnnotated) {
  // b -> t, c* with a condition on (b, t): t is UNSTARRED in the source, but
  // the view must star it -- a b-element whose t fails the condition has
  // zero visible t-children, and that must be a legal view instance.
  Policy p(TestDtd());
  RoleId r = p.AddRole("r").take();
  ASSERT_TRUE(p.Annotate(r, "b", "t", Annotation::If("not(c)").take()).ok());
  auto compiled = CompileRole(p, r);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const view::ViewDef& view = *compiled.value().view;
  dtd::TypeId b = view.view_dtd().FindType("b");
  dtd::TypeId t = view.view_dtd().FindType("t");
  bool saw_t = false;
  for (const dtd::ChildSpec& spec : view.view_dtd().production(b).children) {
    if (spec.type == t) {
      saw_t = true;
      EXPECT_TRUE(spec.starred);
    }
  }
  EXPECT_TRUE(saw_t);
  // An unconditioned unstarred child stays unstarred: (a, t) under the same
  // role keeps the source's exactly-one shape.
  dtd::TypeId a = view.view_dtd().FindType("a");
  for (const dtd::ChildSpec& spec : view.view_dtd().production(a).children) {
    if (spec.type == t) EXPECT_FALSE(spec.starred);
  }
  // sigma(b, t) = t[not(c)]: the child step filtered by the policy
  // qualifier.
  ASSERT_NE(view.annotation(b, t), nullptr);
  EXPECT_EQ(xpath::ToString(*view.annotation(b, t)), "t[not(c)]");
}

// Materializer conformance of compiled views: for random role-restricted
// views over random documents, Materialize must succeed, the result must
// validate against the derived view DTD, and every materialized element must
// bind to a source element whose label the view knows. This is the
// satellite's Materialize-under-inheritance coverage (the full answer-level
// conformance lives in authz_test.cc).
TEST(RoleCompilerTest, CompiledViewsMaterializeAndValidate) {
  auto parsed = ParsePolicy(kSpec);
  ASSERT_TRUE(parsed.ok());
  const Policy& p = parsed.value();
  for (int round = 0; round < 10; ++round) {
    gen::GenericParams params;
    params.seed = 900 + round;
    params.star_max = 3;
    params.soft_depth = 6;
    auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    for (RoleId r = 0; r < p.num_roles(); ++r) {
      auto compiled = CompileRole(p, r);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      if (compiled.value().root_hidden) continue;
      auto mat = view::Materialize(*compiled.value().view, tree.value());
      ASSERT_TRUE(mat.ok()) << "role " << p.role_name(r) << " round " << round
                            << ": " << mat.status().ToString();
      Status valid = dtd::ValidateDocument(compiled.value().view->view_dtd(),
                                           mat.value().tree);
      EXPECT_TRUE(valid.ok()) << "role " << p.role_name(r) << " round "
                              << round << ": " << valid.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// RoleCatalog

TEST(RoleCatalogTest, CompilesOncePerRoleAndServesWarmQueries) {
  auto parsed = ParsePolicy(kSpec);
  ASSERT_TRUE(parsed.ok());
  const Policy& p = parsed.value();
  gen::GenericParams params;
  params.seed = 42;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());

  policy::RoleCatalog catalog(p, tree.value(), nullptr);
  auto staff = catalog.Acquire(std::string_view("staff"));
  ASSERT_TRUE(staff.ok()) << staff.status().ToString();
  auto again = catalog.Acquire(p.FindRole("staff"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(staff.value().get(), again.value().get());
  EXPECT_EQ(catalog.stats().compiles, 1);
  EXPECT_EQ(catalog.stats().hits, 1);

  auto q1 = staff.value()->Compile("a//b");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = staff.value()->Compile("a // b");  // same normalized text
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q1.value().mfa.get(), q2.value().mfa.get());
  EXPECT_EQ(staff.value()->cache_stats().hits, 1);

  // Distinct roles get distinct compiled queries (the (role, query) key).
  auto research = catalog.Acquire(std::string_view("research"));
  ASSERT_TRUE(research.ok());
  auto q3 = research.value()->Compile("a//b");
  ASSERT_TRUE(q3.ok());
  EXPECT_NE(q1.value().mfa.get(), q3.value().mfa.get());

  EXPECT_FALSE(catalog.Acquire(std::string_view("ghost")).ok());
  EXPECT_FALSE(catalog.Acquire(RoleId{99}).ok());
}

TEST(RoleCatalogTest, EvictsColdUnreferencedRolesBeyondCapacity) {
  Policy p(TestDtd());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(p.AddRole("role" + std::to_string(i)).ok());
  }
  gen::GenericParams params;
  params.seed = 7;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());

  policy::RoleCatalogOptions options;
  options.role_capacity = 2;
  policy::RoleCatalog catalog(p, tree.value(), nullptr, options);

  // Hold role0's partition: it must survive every eviction sweep.
  auto held = catalog.Acquire(RoleId{0});
  ASSERT_TRUE(held.ok());
  for (RoleId r = 1; r < 8; ++r) {
    ASSERT_TRUE(catalog.Acquire(r).ok());
  }
  policy::RoleCatalogStats stats = catalog.stats();
  EXPECT_EQ(stats.compiles, 8);
  EXPECT_EQ(stats.resident, 2);  // capacity holds
  EXPECT_EQ(stats.planes_evicted, 6);

  // Re-acquiring the held role is a hit (it was pinned, never evicted);
  // re-acquiring an evicted role recompiles.
  EXPECT_EQ(catalog.Acquire(RoleId{0}).value().get(), held.value().get());
  ASSERT_TRUE(catalog.Acquire(RoleId{1}).ok());
  EXPECT_EQ(catalog.stats().compiles, 9);
}

// Concurrent Acquires from 8 threads over 64 roles through a 4-entry
// catalog, with handles held across other threads' evictions. Roles compile
// outside the catalog lock and evicted partitions die after it, so this pins
// what that must not break (under TSan via the `concurrency` label):
//  * every handle held at one time for a role is the same Entry;
//  * a held Entry is never evicted (re-acquiring it returns it);
//  * compiles + hits counts every successful Acquire exactly once;
//  * with every handle released, one more Acquire restores the cap.
TEST(RoleCatalogTest, ConcurrentAcquireKeepsOneEntryPerRole) {
  constexpr int kRoles = 64;
  constexpr int kThreads = 8;
  constexpr int kAcquiresPerThread = 300;
  constexpr size_t kWindow = 2;  // recent handles each thread keeps
  Policy p(TestDtd());
  for (int i = 0; i < kRoles; ++i) {
    ASSERT_TRUE(p.AddRole("role" + std::to_string(i)).ok());
  }
  gen::GenericParams params;
  params.seed = 11;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());
  policy::RoleCatalogOptions options;
  options.role_capacity = 4;
  policy::RoleCatalog catalog(p, tree.value(), nullptr, options);
  using Handle = std::shared_ptr<policy::RoleCatalog::Entry>;

  // Per role, the Entry its registered handles point to. A handle is
  // registered only while held, so its Entry cannot have been evicted and
  // every Acquire of the role must return that same Entry.
  struct Registry {
    std::mutex mu;
    const policy::RoleCatalog::Entry* entry = nullptr;
    int holders = 0;
  };
  std::vector<Registry> registry(kRoles);
  std::atomic<int> split_roles{0};
  std::atomic<int> failed{0};
  std::atomic<int64_t> acquires{0};
  auto acquire = [&](RoleId role) -> Handle {
    auto got = catalog.Acquire(role);
    if (!got.ok()) {
      ++failed;
      return nullptr;
    }
    ++acquires;
    Handle handle = std::move(got.value());
    Registry& r = registry[role];
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.holders > 0 && r.entry != handle.get()) ++split_roles;
    r.entry = handle.get();
    ++r.holders;
    return handle;
  };
  auto release = [&](Handle* handle) {
    {
      // Deregister before letting go: once dropped, it may be evicted.
      Registry& r = registry[(*handle)->role()];
      std::lock_guard<std::mutex> lock(r.mu);
      --r.holders;
    }
    handle->reset();
  };

  // Threads 0..3 each hold one role for the whole run, more pinned roles
  // than the catalog's capacity.
  std::vector<Handle> sticky(kThreads);
  std::atomic<int> sticky_moved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(900 + t);
      std::uniform_int_distribution<int> pick(0, kRoles - 1);
      if (t < 4) sticky[t] = acquire(RoleId(t));
      std::deque<Handle> window;
      for (int i = 0; i < kAcquiresPerThread; ++i) {
        if (sticky[t] != nullptr && i % 16 == 0) {
          Handle again = acquire(sticky[t]->role());
          if (again.get() != sticky[t].get()) ++sticky_moved;
          if (again != nullptr) release(&again);
        }
        Handle h = acquire(RoleId(pick(rng)));
        if (h == nullptr) continue;
        window.push_back(std::move(h));
        if (window.size() > kWindow) {
          release(&window.front());
          window.pop_front();
        }
      }
      for (Handle& h : window) release(&h);
    });
  }
  for (std::thread& th : threads) th.join();
  for (Handle& h : sticky) {
    if (h != nullptr) release(&h);
  }

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(split_roles.load(), 0);
  EXPECT_EQ(sticky_moved.load(), 0);
  policy::RoleCatalogStats stats = catalog.stats();
  EXPECT_EQ(stats.compiles + stats.hits, acquires.load());
  EXPECT_GT(stats.planes_evicted, 0);
  ASSERT_TRUE(catalog.Acquire(RoleId{0}).ok());
  EXPECT_LE(catalog.stats().resident, 4);
}

}  // namespace
}  // namespace smoqe
