#ifndef FEDDA_TESTS_FL_EVERY_FIELD_H_
#define FEDDA_TESTS_FL_EVERY_FIELD_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fl/runner.h"

namespace fedda::fl::testing {

/// Expects EveryField(result) to equal `pinned` line by line; with
/// FEDDA_REGEN_GOLDENS set it prints a paste-ready block instead.
inline void CheckEveryField(const char* name, const FlRunResult& result,
                            const std::vector<const char*>& pinned) {
  const std::vector<std::string> rendered = EveryField(result);
  if (std::getenv("FEDDA_REGEN_GOLDENS") != nullptr) {
    std::printf("// --- %s ---\n", name);
    for (const std::string& line : rendered) {
      std::printf("\"%s\",\n", line.c_str());
    }
    return;
  }
  ASSERT_EQ(rendered.size(), pinned.size()) << name;
  for (size_t i = 0; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], pinned[i]) << name << " line " << i;
  }
}

}  // namespace fedda::fl::testing

#endif  // FEDDA_TESTS_FL_EVERY_FIELD_H_
