// Tests for the perf-trajectory driver harness: the JSON Report every
// bench_{hotpath,reuse,planning,simd,service,masked} driver prints, its gate
// bookkeeping, and the shared flag parser.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"

namespace speck::bench {
namespace {

// The layout the checked-in BENCH_*.json files use, with a non-finite
// number rendered as null so the document stays valid JSON.
constexpr const char* kGolden = R"({
  "bench": "demo",
  "corpus_matrices": 11,
  "min_speedup": 1.25,
  "vector_backend": "avx2 \"x\"",
  "gate": "pass",
  "points": [
    {"label": "threads1",
     "threads": 1,
     "wall_seconds": 0.00238923,
     "plan_bytes": 452608877,
     "speedup": 4.4188,
     "nan_metric": null},
    {"label": "threads8",
     "threads": 8,
     "tiny": 1.12184e-05,
     "big": 4.52609e+08}
  ]
}
)";

TEST(BenchReport, PrintsTheBenchJsonLayout) {
  Report report("demo");
  report.count("corpus_matrices", 11);
  report.number("min_speedup", 1.25);
  report.text("vector_backend", "avx2 \"x\"");
  report.begin_point(1);
  report.number("wall_seconds", 0.0023892345);
  report.count("plan_bytes", 452608877);
  report.number("speedup", 4.41880);
  report.number("nan_metric", std::numeric_limits<double>::quiet_NaN());
  report.end_point();
  report.begin_point(8);
  report.number("tiny", 1.121843e-05);
  report.number("big", 452608877.0);
  report.end_point();
  testing::internal::CaptureStdout();
  const int code = report.finish();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), kGolden);
  EXPECT_EQ(code, 0);
}

TEST(BenchReport, InfinitiesRewritesAndNoPoints) {
  Report report("demo");
  report.number("up", std::numeric_limits<double>::infinity());
  report.number("down", -std::numeric_limits<double>::infinity());
  report.count("up", 4);  // a rewrite keeps the key's first position
  EXPECT_EQ(report.json(),
            "{\n  \"bench\": \"demo\",\n  \"up\": 4,\n  \"down\": null,\n"
            "  \"points\": []\n}\n");
}

int finish_quietly(Report& report) {
  testing::internal::CaptureStdout();
  const int code = report.finish();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find(code == 0 ? "\"gate\": \"pass\"" : "\"gate\": \"fail\""),
            std::string::npos);
  return code;
}

TEST(BenchReport, GatesPassOnlyOnFiniteValuesWithinBounds) {
  Report pass("demo");
  pass.require_at_least("speedup", 3.0, 3.0);
  pass.require_at_most("rate", 0.25, 0.25);
  EXPECT_EQ(finish_quietly(pass), 0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, 2.9}) {
    Report report("demo");
    report.require_at_least("speedup", bad, 3.0);
    EXPECT_EQ(finish_quietly(report), 1) << bad;
  }
  for (const double bad : {nan, -inf, 0.26}) {
    Report report("demo");
    report.require_at_most("rate", bad, 0.25);
    EXPECT_EQ(finish_quietly(report), 1) << bad;
  }
  Report failed("demo");
  failed.fail("%s diverges", "entry");
  EXPECT_EQ(finish_quietly(failed), 1);
}

/// A driver-shaped flag set; parse() results land in the members.
struct DemoFlags {
  bool quick = false;
  std::vector<int> threads = {1, 8};
  std::size_t reps = 5;
  double min_speedup = 3.0;
  std::uint64_t seed = 42;

  bool parse(std::vector<std::string> args) {
    Flags flags;
    flags.on("--quick", [&] {
      quick = true;
      threads = {1};
    });
    flags.threads(&threads);
    flags.count("--reps", &reps);
    flags.number("--min-speedup", "X", &min_speedup);
    flags.integer("--seed", &seed);
    args.insert(args.begin(), "bench_demo");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(BenchFlags, AppliesFlagsLeftToRight) {
  DemoFlags f;
  ASSERT_TRUE(f.parse({"--quick", "--threads", "4", "--reps", "2",
                       "--min-speedup", "1.5", "--seed", "0"}));
  EXPECT_TRUE(f.quick);
  EXPECT_EQ(f.threads, std::vector<int>{4});
  EXPECT_EQ(f.reps, 2u);
  EXPECT_EQ(f.min_speedup, 1.5);
  EXPECT_EQ(f.seed, 0u);

  DemoFlags g;
  ASSERT_TRUE(g.parse({"--threads", "4", "--quick"}));
  EXPECT_EQ(g.threads, std::vector<int>{1});

  DemoFlags defaults;
  ASSERT_TRUE(defaults.parse({}));
  EXPECT_EQ(defaults.reps, 5u);
  EXPECT_EQ(defaults.threads, (std::vector<int>{1, 8}));
}

TEST(BenchFlags, RejectsUnknownFlagsAndBadValues) {
  const std::vector<std::vector<std::string>> bad = {
      {"--unknown"},          {"--reps"},
      {"--reps", "0"},        {"--reps", "-1"},
      {"--reps", "+3"},       {"--reps", "3x"},
      {"--reps", ""},         {"--reps", "2147483648"},
      {"--threads", "0"},     {"--min-speedup", "fast"},
      {"--min-speedup", "nan"}, {"--min-speedup", "inf"},
      {"--seed", "-1"},       {"--quick", "extra"},
  };
  for (const auto& args : bad) {
    DemoFlags f;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(f.parse(args)) << args.front();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("usage: bench_demo [--quick] [--threads N] [--reps N] "
                       "[--min-speedup X] [--seed N]"),
              std::string::npos)
        << err;
  }
}

}  // namespace
}  // namespace speck::bench
