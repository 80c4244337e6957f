// Seeded mutation fuzzing for the text parsers, in the style of the XML
// parser's fuzz suite (xml_test.cc): each iteration mutates one seed input
// a few times -- truncate, flip a byte, inject a metacharacter, delete a
// span, duplicate a span -- and hands it to the parser, which must return a
// value or a Status: never crash, hang, or trip a sanitizer.

#ifndef SMOQE_TESTS_MUTATION_FUZZ_H_
#define SMOQE_TESTS_MUTATION_FUZZ_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace smoqe::fuzz {

/// Contents of tests/testdata/<name> (SMOQE_TESTDATA_DIR is set by
/// tests/CMakeLists.txt for the suites that read fixtures).
inline std::string ReadTestdata(const std::string& name) {
  std::ifstream in(std::string(SMOQE_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << "missing testdata file: " << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One to four random mutations of `input`; injected characters are drawn
/// from `meta`, the parser's own syntax characters.
inline std::string Mutate(std::string input, std::string_view meta,
                          std::mt19937_64& rng) {
  const int mutations = 1 + static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations && !input.empty(); ++m) {
    const size_t at = rng() % input.size();
    switch (rng() % 5) {
      case 0:
        input.resize(at);  // truncate
        break;
      case 1:
        input[at] = static_cast<char>(rng() % 256);  // flip a byte
        break;
      case 2:
        input.insert(at, 1, meta[rng() % meta.size()]);  // inject
        break;
      case 3:
        input.erase(at, 1 + rng() % 8);  // delete a span
        break;
      case 4: {
        const std::string span = input.substr(at, 1 + rng() % 16);
        input.insert(rng() % (input.size() + 1), span);  // duplicate a span
        break;
      }
    }
  }
  return input;
}

/// Feeds 3000 seeded mutations of `seeds` to `parse` (input -> StatusOr).
/// Every input must yield a value or a Status with a message; both
/// outcomes must occur, so the loop exercises accepting and rejecting
/// paths alike.
template <typename Parse>
void FuzzParser(const std::vector<std::string>& seeds, std::string_view meta,
                uint64_t seed, Parse parse) {
  ASSERT_FALSE(seeds.empty());
  std::mt19937_64 rng(seed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string input = Mutate(seeds[rng() % seeds.size()], meta, rng);
    auto result = parse(input);  // must return, never crash
    if (result.ok()) {
      ++accepted;
    } else {
      EXPECT_FALSE(result.status().message().empty()) << input;
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace smoqe::fuzz

#endif  // SMOQE_TESTS_MUTATION_FUZZ_H_
