// Golden end-to-end regression tests: a seeded 4-client / 5-round federated
// run must reproduce the exact pinned metrics, byte counts, and participant
// schedule, bit for bit. Doubles are compared through a printf %.17g
// round-trip, which is lossless for IEEE-754 doubles, so any change to the
// numerics — kernel order, RNG consumption, aggregation arithmetic, wire
// framing — trips these tests immediately.
//
// To regenerate the goldens after an intentional numerics change:
//   FEDDA_REGEN_GOLDENS=1 ./build/tests/fl_test --gtest_filter='GoldenRunTest.*'
// and paste the printed blocks over the arrays below (see
// tools/README.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "tensor/kernels/kernels.h"
#include "tests/fl/every_field.h"

namespace fedda::fl {
namespace {

using testing::CheckEveryField;

/// %.17g renders the shortest string that round-trips any double exactly,
/// so string equality here is bit equality on the underlying values.
std::string GoldenDouble(double value) {
  return core::StrFormat("%.17g", value);
}

SystemConfig GoldenSystemConfig() {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  return config;
}

FlOptions GoldenOptions(FlAlgorithm algorithm) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 5;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 128;
  options.eval.mrr_negatives = 5;
  options.eval_every_round = true;
  return options;
}

constexpr uint64_t kRunSeed = 123;

/// Everything a golden pins about one run. A `sum_*` value pins
/// SumOver(history, &RoundRecord::*).
struct Golden {
  const char* final_auc;
  const char* final_mrr;
  int64_t sum_uplink_scalars;
  int64_t sum_uplink_bytes;
  int64_t sum_downlink_scalars;
  int64_t sum_downlink_bytes;
  std::vector<const char*> round_auc;
  std::vector<int> participants;
};

void CheckOrRegen(const char* test_name, const FlRunResult& result,
                  const Golden& golden) {
  const auto sum = [&result](int64_t RoundRecord::*field) {
    return SumOver(result.history, field);
  };
  if (std::getenv("FEDDA_REGEN_GOLDENS") != nullptr) {
    // Paste-ready block for the arrays below.
    std::printf("// --- %s ---\n", test_name);
    std::printf("/*final_auc=*/\"%s\",\n",
                GoldenDouble(result.final_auc).c_str());
    std::printf("/*final_mrr=*/\"%s\",\n",
                GoldenDouble(result.final_mrr).c_str());
    std::printf("/*sum_uplink_scalars=*/%lld,\n",
                static_cast<long long>(sum(&RoundRecord::uplink_scalars)));
    std::printf("/*sum_uplink_bytes=*/%lld,\n",
                static_cast<long long>(sum(&RoundRecord::uplink_bytes)));
    std::printf("/*sum_downlink_scalars=*/%lld,\n",
                static_cast<long long>(sum(&RoundRecord::downlink_scalars)));
    std::printf("/*sum_downlink_bytes=*/%lld,\n",
                static_cast<long long>(sum(&RoundRecord::downlink_bytes)));
    std::printf("/*round_auc=*/{");
    for (const RoundRecord& r : result.history) {
      std::printf("\"%s\", ", GoldenDouble(r.auc).c_str());
    }
    std::printf("},\n/*participants=*/{");
    for (const RoundRecord& r : result.history) {
      std::printf("%d, ", r.participants);
    }
    std::printf("}\n");
    GTEST_SKIP() << "regenerating goldens, assertions skipped";
  }
  EXPECT_EQ(GoldenDouble(result.final_auc), golden.final_auc);
  EXPECT_EQ(GoldenDouble(result.final_mrr), golden.final_mrr);
  EXPECT_EQ(sum(&RoundRecord::uplink_scalars), golden.sum_uplink_scalars);
  EXPECT_EQ(sum(&RoundRecord::uplink_bytes), golden.sum_uplink_bytes);
  EXPECT_EQ(sum(&RoundRecord::downlink_scalars), golden.sum_downlink_scalars);
  EXPECT_EQ(sum(&RoundRecord::downlink_bytes), golden.sum_downlink_bytes);
  ASSERT_EQ(result.history.size(), golden.round_auc.size());
  ASSERT_EQ(result.history.size(), golden.participants.size());
  for (size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(result.history[i].auc), golden.round_auc[i])
        << "round " << i;
    EXPECT_EQ(result.history[i].participants, golden.participants[i])
        << "round " << i;
  }
}

TEST(GoldenRunTest, FedAvgFourClientsFiveRounds) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlRunResult result =
      RunFederated(system, GoldenOptions(FlAlgorithm::kFedAvg), kRunSeed);
  const Golden golden{
      /*final_auc=*/"0.52008056640625",
      /*final_mrr=*/"0.41328125000000016",
      /*sum_uplink_scalars=*/30880,
      /*sum_uplink_bytes=*/131620,
      /*sum_downlink_scalars=*/30880,
      /*sum_downlink_bytes=*/131620,
      /*round_auc=*/{"0.47296142578125", "0.52203369140625",
                     "0.52227783203125", "0.5040283203125",
                     "0.52008056640625"},
      /*participants=*/{4, 4, 4, 4, 4},
  };
  CheckOrRegen("FedAvgFourClientsFiveRounds", result, golden);
}

TEST(GoldenRunTest, FedDaRestartFourClientsFiveRounds) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlRunResult result = RunFederated(
      system, GoldenOptions(FlAlgorithm::kFedDaRestart), kRunSeed);
  const Golden golden{
      /*final_auc=*/"0.51123046875",
      /*final_mrr=*/"0.41119791666666694",
      /*sum_uplink_scalars=*/27640,
      /*sum_uplink_bytes=*/117642,
      /*sum_downlink_scalars=*/27640,
      /*sum_downlink_bytes=*/117642,
      /*round_auc=*/{"0.47296142578125", "0.52227783203125",
                     "0.5264892578125", "0.50677490234375",
                     "0.51123046875"},
      /*participants=*/{4, 4, 3, 4, 3},
  };
  CheckOrRegen("FedDaRestartFourClientsFiveRounds", result, golden);
}

// The golden numbers are properties of the seeded computation, not of the
// machine: a second run in the same process must reproduce them exactly.
// This guards the goldens themselves against hidden global state.
TEST(GoldenRunTest, RerunIsBitIdentical) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlOptions options = GoldenOptions(FlAlgorithm::kFedDaRestart);
  const FlRunResult a = RunFederated(system, options, kRunSeed);
  const FlRunResult b = RunFederated(system, options, kRunSeed);
  EXPECT_EQ(GoldenDouble(a.final_auc), GoldenDouble(b.final_auc));
  EXPECT_EQ(GoldenDouble(a.final_mrr), GoldenDouble(b.final_mrr));
  for (int64_t RoundRecord::*field :
       {&RoundRecord::uplink_bytes, &RoundRecord::downlink_bytes}) {
    EXPECT_EQ(SumOver(a.history, field), SumOver(b.history, field));
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(a.history[i].auc), GoldenDouble(b.history[i].auc));
    EXPECT_EQ(a.history[i].participants, b.history[i].participants);
  }
}

// The kernel dispatch layer promises that SIMD never changes bits
// (DESIGN.md §13). Hold it to that end to end: the forced-scalar run and
// the best-available run must produce the same %.17g history, byte counts,
// and participant schedule. The pinned
// tests above already run under whatever mode the environment selects;
// this one forces both extremes in-process so a drifting vector kernel
// cannot slip through on a machine where auto happens to resolve to scalar.
TEST(GoldenRunTest, KernelDispatchIsBitNeutral) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());
  const FlOptions options = GoldenOptions(FlAlgorithm::kFedDaRestart);

  namespace k = tensor::kernels;
  const k::DispatchMode saved_mode = k::dispatch_mode();

  k::SetDispatchMode(k::DispatchMode::kScalar);
  const FlRunResult scalar_run = RunFederated(system, options, kRunSeed);

  k::SetDispatchMode(k::DispatchMode::kAuto);
  const FlRunResult simd_run = RunFederated(system, options, kRunSeed);

  k::SetDispatchMode(saved_mode);

  EXPECT_EQ(GoldenDouble(scalar_run.final_auc),
            GoldenDouble(simd_run.final_auc));
  EXPECT_EQ(GoldenDouble(scalar_run.final_mrr),
            GoldenDouble(simd_run.final_mrr));
  for (int64_t RoundRecord::*field :
       {&RoundRecord::uplink_scalars, &RoundRecord::uplink_bytes,
        &RoundRecord::downlink_scalars, &RoundRecord::downlink_bytes}) {
    EXPECT_EQ(SumOver(scalar_run.history, field),
              SumOver(simd_run.history, field));
  }
  ASSERT_EQ(scalar_run.history.size(), simd_run.history.size());
  for (size_t i = 0; i < scalar_run.history.size(); ++i) {
    EXPECT_EQ(GoldenDouble(scalar_run.history[i].auc),
              GoldenDouble(simd_run.history[i].auc))
        << "round " << i;
    EXPECT_EQ(scalar_run.history[i].participants,
              simd_run.history[i].participants)
        << "round " << i;
  }

  // And the scalar extreme still reproduces the pinned golden, so this
  // test cannot drift away from the arrays above.
  const Golden golden{
      /*final_auc=*/"0.51123046875",
      /*final_mrr=*/"0.41119791666666694",
      /*sum_uplink_scalars=*/27640,
      /*sum_uplink_bytes=*/117642,
      /*sum_downlink_scalars=*/27640,
      /*sum_downlink_bytes=*/117642,
      /*round_auc=*/{"0.47296142578125", "0.52227783203125",
                     "0.5264892578125", "0.50677490234375",
                     "0.51123046875"},
      /*participants=*/{4, 4, 3, 4, 3},
  };
  CheckOrRegen("KernelDispatchIsBitNeutral", scalar_run, golden);
}

// Generated with FEDDA_REGEN_GOLDENS=1 (see the top of this file).
const std::vector<const char*> kFedAvgFailures = {
    "r0 auc=0.455322265625 mrr=0.32955729166666664 loss=0.71654233336448669 ",
    "p=2 ug=30 us=1272 mus=636 ub=5534 mub=2767 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r1 auc=0.510009765625 mrr=0.34375000000000017 loss=0.71035388112068176 ",
    "p=2 ug=30 us=1896 mus=948 ub=8030 mub=4015 ",
    "ds=1272 mds=636 db=5534 mdb=2767 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r2 auc=0.474365234375 mrr=0.4119791666666669 loss=0.69760686159133911 ",
    "p=2 ug=30 us=992 mus=496 ub=4414 mub=2207 ",
    "ds=2492 mds=1544 db=10596 mdb=6581 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r3 auc=0.48553466796875 mrr=0.38593750000000021 "
    "loss=0.68504273891448975 ",
    "p=1 ug=15 us=624 mus=624 ub=2719 mub=2719 ",
    "ds=496 mds=496 db=2207 mdb=2207 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r4 auc=0.45709228515625 mrr=0.38229166666666681 "
    "loss=0.69994276762008667 ",
    "p=2 ug=30 us=1104 mus=552 ub=4862 mub=2431 ",
    "ds=2064 mds=1440 db=8845 mdb=6126 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r5 auc=0.514404296875 mrr=0.42343750000000024 loss=0.7091253399848938 ",
    "p=1 ug=15 us=912 mus=912 ub=3871 mub=3871 ",
    "ds=552 mds=552 db=2431 mdb=2431 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r6 auc=0.53424072265625 mrr=0.43294270833333337 loss=0.681892991065979 ",
    "p=1 ug=15 us=1152 mus=1152 ub=4831 mub=4831 ",
    "ds=1544 mds=1544 db=6581 mdb=6581 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r7 auc=0.63629150390625 mrr=0.4481770833333335 loss=0.67519348859786987 ",
    "p=1 ug=15 us=1148 mus=1148 ub=4815 mub=4815 ",
    "ds=1528 mds=1528 db=6491 mdb=6491 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r8 auc=0.5799560546875 mrr=0.44544270833333355 loss=0.66090643405914307 ",
    "p=1 ug=15 us=812 mus=812 ub=3471 mub=3471 ",
    "ds=1376 mds=1376 db=5805 mdb=5805 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r9 auc=0.56488037109375 mrr=0.45390625000000023 loss=nan ",
    "p=0 ug=0 us=0 mus=0 ub=0 mub=0 ",
    "ds=0 mds=0 db=0 mdb=0 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r10 auc=0.60968017578125 mrr=0.45846354166666675 "
    "loss=0.65791162848472595 ",
    "p=2 ug=30 us=1088 mus=544 ub=4798 mub=2399 ",
    "ds=2076 mds=1264 db=8854 mdb=5383 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
    "r11 auc=0.57373046875 mrr=0.43437500000000034 loss=nan ",
    "p=0 ug=0 us=0 mus=0 ub=0 mub=0 ",
    "ds=0 mds=0 db=0 mdb=0 act=4 st=0 dep=0 stale=0 vt=0 fr=0",
};

const std::vector<const char*> kExploreScalarDp = {
    "r0 auc=0.47723388671875 mrr=0.34296875000000021 "
    "loss=0.72271886467933655 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26348 mub=6587 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=1 st=0 dep=0 stale=0 vt=0 fr=0",
    "r1 auc=0.50604248046875 mrr=0.3404947916666668 loss=nan ",
    "p=0 ug=0 us=0 mus=0 ub=0 mub=0 ",
    "ds=0 mds=0 db=0 mdb=0 act=1 st=0 dep=0 stale=0 vt=0 fr=0",
    "r2 auc=0.49761962890625 mrr=0.40611979166666673 "
    "loss=0.71058601140975952 ",
    "p=1 ug=29 us=1524 mus=1524 ub=6507 mub=6507 ",
    "ds=1544 mds=1544 db=6581 mdb=6581 act=3 st=0 dep=0 stale=0 vt=0 fr=0",
    "r3 auc=0.51434326171875 mrr=0.3980468750000003 loss=0.68880641460418701 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13174 mub=6587 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=3 st=0 dep=0 stale=0 vt=0 fr=0",
    "r4 auc=0.50921630859375 mrr=0.40169270833333365 "
    "loss=0.68912315368652344 ",
    "p=3 ug=87 us=4595 mus=1544 ub=19613 mub=6587 ",
    "ds=4632 mds=1544 db=19743 mdb=6581 act=2 st=0 dep=0 stale=0 vt=0 fr=0",
    "r5 auc=0.53631591796875 mrr=0.42916666666666686 "
    "loss=0.66691827774047852 ",
    "p=2 ug=58 us=3069 mus=1544 ub=13098 mub=6587 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=3 st=0 dep=0 stale=0 vt=0 fr=0",
};

const std::vector<const char*> kRestartForcedWeighted = {
    "r0 auc=0.4742431640625 mrr=0.34817708333333336 loss=0.7211102694272995 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=0",
    "r1 auc=0.52484130859375 mrr=0.36276041666666692 "
    "loss=0.70836648344993591 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=1",
    "r2 auc=0.53179931640625 mrr=0.42669270833333356 loss=0.6973838210105896 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=1",
    "r3 auc=0.54144287109375 mrr=0.41796875000000028 "
    "loss=0.68251369893550873 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=1",
    "r4 auc=0.51495361328125 mrr=0.4188802083333335 loss=0.66829134523868561 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=1",
    "r5 auc=0.57354736328125 mrr=0.47486979166666682 "
    "loss=0.66199223697185516 ",
    "p=4 ug=116 us=6176 mus=1544 ub=26324 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=0 st=0 dep=0 stale=0 vt=0 fr=1",
    "reactivation c-1 r1 t=0 #0",
    "reactivation c-1 r2 t=0 #0",
    "reactivation c-1 r3 t=0 #0",
    "reactivation c-1 r4 t=0 #0",
    "reactivation c-1 r5 t=0 #0",
};

const std::vector<const char*> kSemiAsyncFedAvgFailures = {
    "r0 auc=0.4791259765625 mrr=0.34192708333333344 loss=0.73227265477180481 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=4 st=4 dep=0 stale=0 "
    "vt=0.60822624999999997 fr=0",
    "r1 auc=0.5081787109375 mrr=0.34908854166666681 loss=0.71316507458686829 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=4 st=2 dep=0 stale=1 "
    "vt=0.60822624999999997 fr=0",
    "r2 auc=0.49542236328125 mrr=0.42382812500000022 "
    "loss=0.72122871875762939 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=4 st=2 dep=2 stale=0.5 "
    "vt=1.2164524999999999 fr=0",
    "r3 auc=0.4598388671875 mrr=0.37083333333333357 loss=0.70320713520050049 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=4 st=4 dep=1 stale=0 "
    "vt=1.8246787499999999 fr=0",
    "r4 auc=0.50738525390625 mrr=0.40546875000000021 "
    "loss=0.67588257789611816 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=4632 mds=1544 db=19743 mdb=6581 act=4 st=3 dep=0 stale=0.5 "
    "vt=2.4329049999999999 fr=0",
    "r5 auc=0.49383544921875 mrr=0.39713541666666691 "
    "loss=0.66612017154693604 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=4 st=2 dep=0 stale=1 "
    "vt=2.4329049999999999 fr=0",
    "arrival c0 r0 t=0.60822624999999997 #0",
    "arrival c1 r0 t=0.60822624999999997 #1",
    "arrival c2 r0 t=0.60822624999999997 #2",
    "arrival c3 r0 t=0.60822624999999997 #3",
    "departure c0 r1 t=1.2098715 #5",
    "departure c2 r2 t=1.2098715 #7",
    "arrival c1 r1 t=1.2164524999999999 #4",
    "arrival c3 r2 t=1.2164524999999999 #6",
    "departure c3 r3 t=1.81809775 #11",
    "arrival c0 r3 t=1.8246787499999999 #8",
    "arrival c1 r3 t=1.8246787499999999 #9",
    "arrival c2 r3 t=1.8246787499999999 #10",
    "arrival c0 r4 t=2.4329049999999999 #12",
    "arrival c1 r4 t=2.4329049999999999 #13",
    "arrival c3 r4 t=2.4329049999999999 #14",
};

const std::vector<const char*> kSemiAsyncRestartStraggler = {
    "r0 auc=0.4736328125 mrr=0.34700520833333348 loss=0.73207321763038635 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=4 st=4 dep=0 stale=0 "
    "vt=0.60822624999999997 fr=0",
    "r1 auc=0.5126953125 mrr=0.36250000000000032 loss=0.69570106267929077 ",
    "p=2 ug=56 us=3068 mus=1544 ub=13056 mub=6581 ",
    "ds=3056 mds=1532 db=12995 mdb=6520 act=3 st=2 dep=0 stale=0.5 "
    "vt=1.2163200000000001 fr=0",
    "r2 auc=0.51983642578125 mrr=0.42148437500000019 "
    "loss=0.70715826749801636 ",
    "p=2 ug=57 us=3076 mus=1544 ub=13101 mub=6581 ",
    "ds=1544 mds=1544 db=6581 mdb=6581 act=3 st=1 dep=0 stale=0.5 "
    "vt=1.82454625 fr=0",
    "r3 auc=0.530517578125 mrr=0.40156250000000021 loss=0.68540465831756592 ",
    "p=2 ug=54 us=3048 mus=1524 ub=12950 mub=6475 ",
    "ds=3048 mds=1524 db=12950 mdb=6475 act=3 st=2 dep=0 stale=0 "
    "vt=2.4326400000000001 fr=0",
    "r4 auc=0.504150390625 mrr=0.40794270833333346 loss=0.71094474196434021 ",
    "p=2 ug=56 us=3068 mus=1544 ub=13056 mub=6581 ",
    "ds=3048 mds=1524 db=12950 mdb=6475 act=2 st=2 dep=0 stale=2 "
    "vt=3.0407337500000002 fr=0",
    "r5 auc=0.55084228515625 mrr=0.42421875000000026 loss=0.6726665198802948 ",
    "p=2 ug=55 us=3060 mus=1536 ub=13011 mub=6536 ",
    "ds=1536 mds=1536 db=6536 mdb=6536 act=4 st=1 dep=0 stale=0.5 "
    "vt=5.4734137500000006 fr=0",
    "arrival c0 r0 t=0.60822624999999997 #0",
    "arrival c1 r0 t=0.60822624999999997 #1",
    "arrival c2 r0 t=0.60822624999999997 #2",
    "arrival c1 r1 t=1.2163200000000001 #5",
    "arrival c0 r1 t=1.2163762499999999 #4",
    "arrival c2 r2 t=1.82454625 #6",
    "arrival c0 r3 t=2.4326400000000001 #7",
    "arrival c2 r3 t=2.4326400000000001 #8",
    "arrival c3 r0 t=2.4329049999999999 #3",
    "arrival c0 r4 t=3.0407337500000002 #9",
    "arrival c2 r4 t=3.0407337500000002 #10",
    "arrival c3 r5 t=5.4734137500000006 #11",
};

const std::vector<const char*> kSemiAsyncRestartDepartures = {
    "r0 auc=0.4678955078125 mrr=0.3407552083333335 loss=0.73778769373893738 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=6176 mds=1544 db=26324 mdb=6581 act=3 st=4 dep=2 stale=0 "
    "vt=2.4329049999999999 fr=0",
    "r1 auc=0.51806640625 mrr=0.35833333333333356 loss=0.72922754287719727 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=4632 mds=1544 db=19743 mdb=6581 act=2 st=3 dep=1 stale=0 "
    "vt=3.0411312499999998 fr=0",
    "r2 auc=0.49359130859375 mrr=0.40455729166666676 loss=nan ",
    "p=0 ug=0 us=0 mus=0 ub=0 mub=0 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=2 st=2 dep=2 stale=0 "
    "vt=3.6427765000000001 fr=0",
    "r3 auc=0.52294921875 mrr=0.41354166666666675 loss=0.70168155431747437 ",
    "p=1 ug=29 us=1544 mus=1544 ub=6581 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=2 st=2 dep=1 stale=0 "
    "vt=4.2510027499999996 fr=0",
    "r4 auc=0.5386962890625 mrr=0.41093750000000012 loss=0.67870891094207764 ",
    "p=1 ug=29 us=1544 mus=1544 ub=6581 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=2 st=2 dep=1 stale=0 "
    "vt=4.8592289999999991 fr=0",
    "r5 auc=0.54931640625 mrr=0.43945312500000022 loss=0.67202892899513245 ",
    "p=2 ug=58 us=3088 mus=1544 ub=13162 mub=6581 ",
    "ds=3088 mds=1544 db=13162 mdb=6581 act=2 st=2 dep=0 stale=0 "
    "vt=5.4674552499999987 fr=0",
    "departure c0 r0 t=0.60164525000000002 #2",
    "departure c2 r0 t=0.60164525000000002 #3",
    "arrival c1 r0 t=0.60822624999999997 #0",
    "arrival c3 r0 t=2.4329049999999999 #1",
    "departure c2 r1 t=3.0345502499999997 #6",
    "arrival c0 r1 t=3.0411312499999998 #4",
    "arrival c1 r1 t=3.0411312499999998 #5",
    "departure c1 r2 t=3.6427765000000001 #7",
    "departure c2 r2 t=3.6427765000000001 #8",
    "departure c1 r3 t=4.2444217499999999 #10",
    "arrival c2 r3 t=4.2510027499999996 #9",
    "departure c2 r4 t=4.8526479999999994 #12",
    "arrival c1 r4 t=4.8592289999999991 #11",
    "arrival c1 r5 t=5.4674552499999987 #13",
    "arrival c2 r5 t=5.4674552499999987 #14",
};

/// Pins the complete history of a matrix that reaches every branch where
/// the synchronous and the semi-async server paths differ: failures with an
/// all-failed round and FedAvg's rate-D group sample, scalar-granularity
/// FedDA-Explore with DP noise, a forced reactivation under weighted
/// aggregation, semi-async departures, and a semi-async straggler.
TEST(GoldenRunTest, EveryRecordField) {
  const FederatedSystem system = FederatedSystem::Build(GoldenSystemConfig());

  FlOptions fedavg = GoldenOptions(FlAlgorithm::kFedAvg);
  fedavg.rounds = 12;
  fedavg.client_fraction = 0.5;
  fedavg.param_fraction = 0.5;
  fedavg.client_failure_prob = 0.3;
  const FlRunResult fedavg_run = RunFederated(system, fedavg, kRunSeed);
  // An all-failed round draws no rate-D sample; a later round pins that.
  bool all_failed = false;
  for (size_t t = 0; t + 1 < fedavg_run.history.size(); ++t) {
    all_failed = all_failed || fedavg_run.history[t].participants == 0;
  }
  EXPECT_TRUE(all_failed) << "seed reaches no all-failed round";
  CheckEveryField("sync FedAvg C=D=0.5, failures", fedavg_run,
                  kFedAvgFailures);

  FlOptions explore = GoldenOptions(FlAlgorithm::kFedDaExplore);
  explore.rounds = 6;
  explore.activation.granularity = ActivationGranularity::kScalar;
  explore.client_failure_prob = 0.3;
  explore.dp_noise_std = 0.01;
  CheckEveryField("sync FedDA-Explore scalar, failures, DP",
                  RunFederated(system, explore, kRunSeed), kExploreScalarDp);

  FlOptions restart = GoldenOptions(FlAlgorithm::kFedDaRestart);
  restart.rounds = 6;
  restart.beta_r = 0.0;
  restart.activation.alpha = 1.0;
  restart.weighted_aggregation = true;
  const FlRunResult restart_run = RunFederated(system, restart, kRunSeed);
  bool forced = false;
  for (const RoundRecord& r : restart_run.history) {
    forced = forced || r.forced_reactivation;
  }
  EXPECT_TRUE(forced) << "seed reaches no forced reactivation";
  CheckEveryField("sync FedDA-Restart forced, weighted", restart_run,
                  kRestartForcedWeighted);

  FlOptions async_fedavg = GoldenOptions(FlAlgorithm::kFedAvg);
  async_fedavg.rounds = 6;
  async_fedavg.aggregation_mode = AggregationMode::kSemiAsync;
  async_fedavg.semi_async.buffer_size = 2;
  async_fedavg.client_failure_prob = 0.3;
  const FlRunResult async_fedavg_run =
      RunFederated(system, async_fedavg, kRunSeed);
  int departures = 0;
  for (const RoundRecord& r : async_fedavg_run.history) {
    departures += r.departures;
  }
  EXPECT_GT(departures, 0) << "seed reaches no departure";
  CheckEveryField("semi-async FedAvg, failures", async_fedavg_run,
                  kSemiAsyncFedAvgFailures);

  FlOptions async_restart = GoldenOptions(FlAlgorithm::kFedDaRestart);
  async_restart.rounds = 6;
  async_restart.aggregation_mode = AggregationMode::kSemiAsync;
  async_restart.semi_async.buffer_size = 2;
  async_restart.semi_async.client_speed = {1.0, 1.0, 1.0, 4.0};
  const FlRunResult async_restart_run =
      RunFederated(system, async_restart, kRunSeed);
  double staleness = 0.0;
  for (const RoundRecord& r : async_restart_run.history) {
    staleness += r.mean_staleness;
  }
  EXPECT_GT(staleness, 0.0) << "the straggler never arrives stale";
  CheckEveryField("semi-async FedDA-Restart, straggler, K=2",
                  async_restart_run, kSemiAsyncRestartStraggler);

  // Under FedDA a departure's cache invalidation is visible: a group no
  // arrival touched keeps its version, so only the invalidation re-ships
  // it to the rejoining client.
  FlOptions async_departures = async_restart;
  async_departures.client_failure_prob = 0.5;
  CheckEveryField("semi-async FedDA-Restart, departures, K=2",
                  RunFederated(system, async_departures, kRunSeed),
                  kSemiAsyncRestartDepartures);
}

}  // namespace
}  // namespace fedda::fl
