#ifndef FEDDA_TESTS_FL_EVERY_FIELD_H_
#define FEDDA_TESTS_FL_EVERY_FIELD_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/runner.h"

namespace fedda::fl::testing {

/// Every RoundRecord field of every round (doubles at %.17g), then every
/// processed event (FlRunResult::events). A round renders as three chunks
/// so the pinned arrays stay readable.
inline std::vector<std::string> EveryField(const FlRunResult& result) {
  std::vector<std::string> out;
  for (const RoundRecord& r : result.history) {
    out.push_back(core::StrFormat("r%d auc=%.17g mrr=%.17g loss=%.17g ",
                                  r.round, r.auc, r.mrr, r.mean_local_loss));
    out.push_back(core::StrFormat(
        "p=%d ug=%lld us=%lld mus=%lld ub=%lld mub=%lld ", r.participants,
        static_cast<long long>(r.uplink_groups),
        static_cast<long long>(r.uplink_scalars),
        static_cast<long long>(r.max_uplink_scalars),
        static_cast<long long>(r.uplink_bytes),
        static_cast<long long>(r.max_uplink_bytes)));
    out.push_back(core::StrFormat(
        "ds=%lld mds=%lld db=%lld mdb=%lld act=%d st=%d dep=%d stale=%.17g "
        "vt=%.17g fr=%d",
        static_cast<long long>(r.downlink_scalars),
        static_cast<long long>(r.max_downlink_scalars),
        static_cast<long long>(r.downlink_bytes),
        static_cast<long long>(r.max_downlink_bytes), r.active_after_round,
        r.started, r.departures, r.mean_staleness, r.virtual_time_sec,
        r.forced_reactivation ? 1 : 0));
  }
  for (const Event& e : result.events) {
    out.push_back(core::StrFormat("%s c%d r%d t=%.17g #%llu",
                                  EventKindName(e.kind), e.client, e.round,
                                  e.time,
                                  static_cast<unsigned long long>(e.seq)));
  }
  return out;
}

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
