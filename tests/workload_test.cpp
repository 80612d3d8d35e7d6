// Tests for the workload substrate: synthetic generator, trace synthesizer,
// trace format round-trip, golden pins of both generators' output, and the
// request layout helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "series_hash.h"
#include "workload/streams.h"
#include "workload/synthetic.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace anu::workload {
namespace {

SyntheticConfig small_synthetic() {
  SyntheticConfig config;
  config.file_set_count = 10;
  config.request_count = 2'000;
  config.duration = 600.0;
  return config;
}

TEST(Workload, AccessorsAndTotals) {
  std::vector<FileSet> fs{{FileSetId(0), "a", 2.0}, {FileSetId(1), "b", 3.0}};
  std::vector<Request> reqs{{1.0, FileSetId(0), 0.5},
                            {2.0, FileSetId(1), 0.25}};
  const Workload w(fs, reqs);
  EXPECT_EQ(w.file_set_count(), 2u);
  EXPECT_EQ(w.request_count(), 2u);
  EXPECT_DOUBLE_EQ(w.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(w.total_demand(), 0.75);
  EXPECT_DOUBLE_EQ(w.span(), 2.0);
  EXPECT_EQ(w.file_set(FileSetId(1)).name, "b");
  EXPECT_EQ(w.requests_per_file_set(), (std::vector<std::size_t>{1, 1}));
}

TEST(Synthetic, ExactRequestAndFileSetCounts) {
  const auto w = make_synthetic_workload(small_synthetic());
  EXPECT_EQ(w.file_set_count(), 10u);
  EXPECT_EQ(w.request_count(), 2'000u);
}

TEST(Synthetic, PaperScaleCounts) {
  // The paper's exact workload: 66,401 requests against 50 file sets over
  // 200 minutes (§5.2.1).
  SyntheticConfig config;  // defaults are the paper values
  const auto w = make_synthetic_workload(config);
  EXPECT_EQ(w.file_set_count(), 50u);
  EXPECT_EQ(w.request_count(), 66'401u);
  EXPECT_LE(w.span(), 200.0 * 60.0);
}

TEST(Synthetic, RequestsSortedWithinDuration) {
  const auto w = make_synthetic_workload(small_synthetic());
  double last = 0.0;
  for (const auto& r : w.requests()) {
    EXPECT_GE(r.arrival, last);
    EXPECT_LT(r.arrival, 600.0);
    last = r.arrival;
  }
}

TEST(Synthetic, DeterministicInSeed) {
  const auto a = make_synthetic_workload(small_synthetic());
  const auto b = make_synthetic_workload(small_synthetic());
  ASSERT_EQ(a.request_count(), b.request_count());
  for (std::size_t i = 0; i < a.request_count(); ++i) {
    EXPECT_EQ(a.requests()[i].arrival, b.requests()[i].arrival);
    EXPECT_EQ(a.requests()[i].demand, b.requests()[i].demand);
  }
}

TEST(Synthetic, SeedChangesWorkload) {
  auto config = small_synthetic();
  const auto a = make_synthetic_workload(config);
  config.seed += 1;
  const auto b = make_synthetic_workload(config);
  EXPECT_NE(a.requests()[0].arrival, b.requests()[0].arrival);
}

TEST(Synthetic, OfferedLoadMatchesTargetUtilization) {
  const auto config = small_synthetic();
  const auto w = make_synthetic_workload(config);
  const double offered = w.total_demand();
  const double capacity = config.duration * config.cluster_capacity;
  EXPECT_NEAR(offered / capacity, config.target_utilization, 0.02);
}

TEST(Synthetic, RequestCountsProportionalToWeights) {
  auto config = small_synthetic();
  config.demand_jitter_sigma = 0.0;
  const auto w = make_synthetic_workload(config);
  const auto counts = w.requests_per_file_set();
  double weight_sum = 0.0;
  for (const auto& fs : w.file_sets()) weight_sum += fs.weight;
  for (std::size_t i = 0; i < w.file_set_count(); ++i) {
    const double expected = static_cast<double>(w.request_count()) *
                            w.file_sets()[i].weight / weight_sum;
    EXPECT_NEAR(static_cast<double>(counts[i]), expected, expected * 0.05 + 2)
        << "file set " << i;
  }
}

TEST(Synthetic, WeightFactorSpreadIsPaperRange) {
  // X ~ U[1,10]: max/min weight ratio must stay within a factor of 10.
  const auto w =
      make_synthetic_workload(SyntheticConfig{});  // 50 sets, better stats
  double lo = 1e18, hi = 0.0;
  for (const auto& fs : w.file_sets()) {
    lo = std::min(lo, fs.weight);
    hi = std::max(hi, fs.weight);
  }
  EXPECT_LE(hi / lo, 10.0);
  EXPECT_GT(hi / lo, 2.0);  // and real spread exists
}

TEST(Synthetic, EveryFileSetHasRequests) {
  const auto w = make_synthetic_workload(small_synthetic());
  for (std::size_t c : w.requests_per_file_set()) EXPECT_GE(c, 1u);
}

TEST(TraceSynth, DfsTraceShape) {
  // §5.1: one-hour DFSTrace workload, 21 file sets, 112,590 requests.
  TraceSynthConfig config;
  const auto w = synthesize_trace(config);
  EXPECT_EQ(w.file_set_count(), 21u);
  EXPECT_EQ(w.request_count(), 112'590u);
  EXPECT_LE(w.span(), 3600.0);
}

TEST(TraceSynth, PopularityIsSkewed) {
  TraceSynthConfig config;
  const auto w = synthesize_trace(config);
  const auto counts = w.requests_per_file_set();
  EXPECT_GT(counts.front(), counts.back() * 5);  // Zipf head vs tail
}

TEST(TraceSynth, Deterministic) {
  TraceSynthConfig config;
  config.request_count = 5'000;
  const auto a = synthesize_trace(config);
  const auto b = synthesize_trace(config);
  for (std::size_t i = 0; i < a.request_count(); ++i) {
    ASSERT_EQ(a.requests()[i].arrival, b.requests()[i].arrival);
  }
}

TEST(TraceSynth, ModulationKeepsOrderAndBounds) {
  TraceSynthConfig config;
  config.request_count = 10'000;
  config.intensity_modulation = 0.8;
  const auto w = synthesize_trace(config);
  double last = 0.0;
  for (const auto& r : w.requests()) {
    EXPECT_GE(r.arrival, last);
    EXPECT_LE(r.arrival, config.duration);
    last = r.arrival;
  }
}

TEST(TraceFormat, RoundTripsThroughText) {
  TraceSynthConfig config;
  config.request_count = 1'000;
  config.file_set_count = 7;
  const auto w = synthesize_trace(config);
  std::stringstream buffer;
  write_trace(buffer, w);
  TraceParseError error;
  const auto parsed = read_trace(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_EQ(parsed->request_count(), w.request_count());
  ASSERT_EQ(parsed->file_set_count(), w.file_set_count());
  for (std::size_t i = 0; i < w.request_count(); ++i) {
    EXPECT_NEAR(parsed->requests()[i].arrival, w.requests()[i].arrival, 1e-6);
    EXPECT_EQ(parsed->requests()[i].file_set, w.requests()[i].file_set);
  }
  for (std::size_t i = 0; i < w.file_set_count(); ++i) {
    EXPECT_EQ(parsed->file_sets()[i].name, w.file_sets()[i].name);
  }
}

TEST(TraceFormat, RejectsUnknownRecord) {
  std::istringstream is("bogus 1 2 3\n");
  TraceParseError error;
  EXPECT_FALSE(read_trace(is, &error).has_value());
  EXPECT_EQ(error.line, 1u);
}

TEST(TraceFormat, RejectsUndeclaredFileSet) {
  std::istringstream is("req 1.0 0 0.5\n");
  TraceParseError error;
  EXPECT_FALSE(read_trace(is, &error).has_value());
}

TEST(TraceFormat, RejectsOutOfOrderRequests) {
  std::istringstream is(
      "fileset 0 a 1.0\n"
      "req 2.0 0 0.5\n"
      "req 1.0 0 0.5\n");
  TraceParseError error;
  EXPECT_FALSE(read_trace(is, &error).has_value());
  EXPECT_EQ(error.line, 3u);
}

TEST(TraceFormat, RejectsNonDenseFileSetIds) {
  std::istringstream is("fileset 1 a 1.0\n");
  EXPECT_FALSE(read_trace(is).has_value());
}

// Two file sets and then `line`, which must fail on line 3.
void expect_trace_rejects(const std::string& line) {
  std::istringstream is("fileset 0 a 1.0\nfileset 1 b 1.0\n" + line + "\n");
  TraceParseError error;
  EXPECT_FALSE(read_trace(is, &error).has_value()) << line;
  EXPECT_EQ(error.line, 3u) << line;
}

// Records are exactly four words and every number is read whole.
TEST(TraceFormat, RejectsMalformedWords) {
  expect_trace_rejects("req 1.0 0 123.7x extra");
  expect_trace_rejects("req 1 1 0x10");
  expect_trace_rejects("fileset 2 trace/fs2 165 junk");
}

TEST(TraceFormat, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# header\n"
      "\n"
      "fileset 0 a 1.0\n"
      "# mid comment\n"
      "req 1.0 0 0.5\n");
  const auto parsed = read_trace(is);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request_count(), 1u);
}

TEST(TraceFormat, FileRoundTrip) {
  TraceSynthConfig config;
  config.request_count = 200;
  config.file_set_count = 3;
  const auto w = synthesize_trace(config);
  const std::string path = ::testing::TempDir() + "/anu_trace_test.txt";
  ASSERT_TRUE(write_trace_file(path, w));
  const auto parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request_count(), 200u);
}

TEST(TraceFormat, MissingFileReportsError) {
  TraceParseError error;
  EXPECT_FALSE(read_trace_file("/nonexistent/anu.txt", &error).has_value());
  EXPECT_EQ(error.line, 0u);
}


TEST(Synthetic, InterArrivalsAreHeavyTailed) {
  // §5.2.1: "inter-arrival times in each file set are governed by a Pareto
  // distribution that is heavy-tailed." The squared coefficient of
  // variation of a file set's gaps should far exceed an exponential's 1.
  workload::SyntheticConfig config;
  config.file_set_count = 1;  // one stream, clean gap statistics
  config.request_count = 20'000;
  config.duration = 20'000.0;
  const auto w = make_synthetic_workload(config);
  double sum = 0.0, sq = 0.0;
  std::size_t n = 0;
  double last = 0.0;
  for (const auto& r : w.requests()) {
    const double gap = r.arrival - last;
    last = r.arrival;
    sum += gap;
    sq += gap * gap;
    ++n;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sq / static_cast<double>(n) - mean * mean;
  EXPECT_GT(var / (mean * mean), 3.0);  // exponential would be ~1
}

TEST(TraceSynth, IntensityModulationCreatesDensityContrast) {
  // With strong modulation the busiest tenth of the hour must see far more
  // requests than the quietest tenth.
  TraceSynthConfig config;
  config.request_count = 50'000;
  config.intensity_modulation = 0.8;
  const auto w = synthesize_trace(config);
  std::vector<std::size_t> deciles(10, 0);
  for (const auto& r : w.requests()) {
    auto d = static_cast<std::size_t>(r.arrival / config.duration * 10.0);
    ++deciles[std::min<std::size_t>(d, 9)];
  }
  std::size_t lo = w.request_count(), hi = 0;
  for (auto d : deciles) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi, lo * 2);
}

TEST(TraceSynth, ZeroModulationIsRoughlyStationary) {
  TraceSynthConfig config;
  config.request_count = 50'000;
  config.intensity_modulation = 0.0;
  config.pareto_shape = 2.5;  // milder burstiness for a stationarity check
  const auto w = synthesize_trace(config);
  std::vector<std::size_t> halves(2, 0);
  for (const auto& r : w.requests()) {
    ++halves[r.arrival < config.duration / 2 ? 0 : 1];
  }
  const double ratio = static_cast<double>(halves[0]) /
                       static_cast<double>(halves[1]);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

TEST(Synthetic, DemandJitterPreservesMeanLoad) {
  workload::SyntheticConfig with_jitter;
  with_jitter.file_set_count = 10;
  with_jitter.request_count = 50'000;
  with_jitter.duration = 5'000.0;
  with_jitter.demand_jitter_sigma = 0.5;
  auto without_jitter = with_jitter;
  without_jitter.demand_jitter_sigma = 0.0;
  const auto a = make_synthetic_workload(with_jitter);
  const auto b = make_synthetic_workload(without_jitter);
  EXPECT_NEAR(a.total_demand() / b.total_demand(), 1.0, 0.02);
}

// FNV-1a over every file set's name and weight, then every request's
// arrival, file set and demand, in workload order: pins a generator's
// output bit for bit.
std::uint64_t workload_hash(const Workload& w) {
  std::uint64_t hash = kFnv1aOffset;
  for (const FileSet& fs : w.file_sets()) {
    fnv1a_fold(hash, fs.name.size(), 8);
    for (const char ch : fs.name) {
      fnv1a_fold(hash, static_cast<unsigned char>(ch), 1);
    }
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(fs.weight), 8);
  }
  for (const Request& r : w.requests()) {
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(r.arrival), 8);
    fnv1a_fold(hash, r.file_set.value(), 4);
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(r.demand), 8);
  }
  return hash;
}

// Runs `fn` inside a run_indexed batch that holds every helper the
// process-wide budget has, so each batch `fn` starts finds none free and runs
// inline, in index order: the path a synthesis inside `anu_sim --seeds`
// takes. Every participant holds one job until `fn` returns; the wait for
// them to start is bounded, in case the batch got fewer helpers than it
// asked for.
template <class Fn>
void with_every_helper_held(Fn fn) {
  const std::size_t participants =
      std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::size_t> started{0};
  std::atomic<bool> done{false};
  run_indexed(participants, [&](std::size_t i) {
    ++started;
    if (i > 0) {
      done.wait(false);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < participants &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    fn();
    done = true;
    done.notify_all();
  });
}

// Golden pins: each literal was captured from the generators as they were
// when requests were still put in order by a comparison sort, so a change
// to the draw path or the layout that moves a single bit fails here. Each
// check runs in its own test, outside any batch, where the synthesis's
// batches get helpers, and again inline in WorkloadPin.InlineInAFullBatch.
void pin_synthetic_paper_default() {
  EXPECT_EQ(workload_hash(make_synthetic_workload(SyntheticConfig{})),
            0xdea477783e4a0d13ULL);
}

void pin_synthetic_churn_shape() {
  // perfbench's protocol_churn workload: 4,096 file sets over 80 two-minute
  // rounds on 64 servers cycling the paper speeds (capacity 316).
  SyntheticConfig config;
  config.file_set_count = 4096;
  config.request_count = 671'446;
  config.duration = 9'600.0;
  config.cluster_capacity = 316.0;
  EXPECT_EQ(workload_hash(make_synthetic_workload(config)),
            0xd9c7ec835cd2e98cULL);
}

void pin_synthetic_flat_demand() {
  SyntheticConfig config;
  config.demand_jitter_sigma = 0.0;
  EXPECT_EQ(workload_hash(make_synthetic_workload(config)),
            0x4ab2401b3b3e1ed7ULL);
}

void pin_synthetic_one_request_per_file_set() {
  SyntheticConfig config;
  config.request_count = config.file_set_count;
  EXPECT_EQ(workload_hash(make_synthetic_workload(config)),
            0xb4614f34112e7946ULL);
}

void pin_synthetic_clustered_arrivals() {
  SyntheticConfig config;
  config.pareto_shape = 1.01;
  config.pareto_bound_ratio = 1e6;
  EXPECT_EQ(workload_hash(make_synthetic_workload(config)),
            0xd2da3ec163042ed9ULL);
}

void pin_trace_default() {
  EXPECT_EQ(workload_hash(synthesize_trace(TraceSynthConfig{})),
            0x65b5115feb21c175ULL);
}

void pin_trace_stationary() {
  TraceSynthConfig config;
  config.intensity_modulation = 0.0;
  EXPECT_EQ(workload_hash(synthesize_trace(config)), 0x6112e5d9b46689eaULL);
}

void pin_trace_deep_modulation() {
  TraceSynthConfig config;
  config.intensity_modulation = 0.9;
  EXPECT_EQ(workload_hash(synthesize_trace(config)), 0x1b046bb1d308caddULL);
}

TEST(WorkloadPin, SyntheticPaperDefault) { pin_synthetic_paper_default(); }
TEST(WorkloadPin, SyntheticChurnShape) { pin_synthetic_churn_shape(); }
TEST(WorkloadPin, SyntheticFlatDemand) { pin_synthetic_flat_demand(); }
TEST(WorkloadPin, SyntheticOneRequestPerFileSet) {
  pin_synthetic_one_request_per_file_set();
}
TEST(WorkloadPin, SyntheticClusteredArrivals) {
  pin_synthetic_clustered_arrivals();
}
TEST(WorkloadPin, TraceDefault) { pin_trace_default(); }
TEST(WorkloadPin, TraceStationary) { pin_trace_stationary(); }
TEST(WorkloadPin, TraceDeepModulation) { pin_trace_deep_modulation(); }

TEST(WorkloadPin, InlineInAFullBatch) {
  with_every_helper_held([] {
    pin_synthetic_paper_default();
    pin_synthetic_churn_shape();
    pin_synthetic_flat_demand();
    pin_synthetic_one_request_per_file_set();
    pin_synthetic_clustered_arrivals();
    pin_trace_default();
    pin_trace_stationary();
    pin_trace_deep_modulation();
  });
}

// order_by_arrival against the comparison sort it replaced, on inputs the
// generators never produce. Each input is file-set streams laid end to end,
// file set 0 first, as the generators lay them out.
std::vector<Request> streams(const std::vector<std::vector<double>>& times) {
  std::vector<Request> requests;
  for (std::size_t fs = 0; fs < times.size(); ++fs) {
    for (const double t : times[fs]) {
      requests.push_back(
          Request{t, FileSetId(static_cast<std::uint32_t>(fs)), 0.0});
    }
  }
  return requests;
}

// Checks that order_by_arrival leaves the keys where std::sort with the
// generators' old comparator puts them, and that it only permutes: each
// request carries its input position as its demand.
void expect_sort_order(std::vector<Request> requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].demand = static_cast<double>(i);
  }
  std::vector<Request> expected = requests;
  std::sort(expected.begin(), expected.end(),
            [](const Request& a, const Request& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.file_set < b.file_set;
            });
  order_by_arrival(requests);
  ASSERT_EQ(requests.size(), expected.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(requests[i].arrival),
              std::bit_cast<std::uint64_t>(expected[i].arrival))
        << "position " << i;
    ASSERT_EQ(requests[i].file_set, expected[i].file_set) << "position " << i;
  }
  std::vector<double> positions;
  for (const Request& r : requests) positions.push_back(r.demand);
  std::sort(positions.begin(), positions.end());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    ASSERT_EQ(positions[i], static_cast<double>(i));
  }
}

TEST(OrderByArrival, ExactTiesAcrossFileSets) {
  // 40 file sets, each with arrivals at the same 30 instants.
  std::vector<std::vector<double>> times(40);
  for (auto& stream : times) {
    for (int k = 0; k < 30; ++k) stream.push_back(0.5 * k);
  }
  expect_sort_order(streams(times));
}

TEST(OrderByArrival, EveryArrivalEqual) {
  std::vector<std::vector<double>> times(30, std::vector<double>(20, 5.0));
  expect_sort_order(streams(times));
}

TEST(OrderByArrival, BucketEdgesAndLastInstant) {
  // Over [0, 1024] a split's bucket edges fall on whole seconds and their
  // halves and quarters; every file set ends on the last instant.
  std::vector<std::vector<double>> times(8);
  for (std::size_t fs = 0; fs < times.size(); ++fs) {
    for (int k = 0; k <= 4096; k += static_cast<int>(fs) + 1) {
      times[fs].push_back(0.25 * k);
    }
    if (times[fs].back() != 1024.0) times[fs].push_back(1024.0);
  }
  expect_sort_order(streams(times));
}

// Past 4,096 requests the first split runs in place and its buckets are
// finished as parallel jobs; these two meet both kinds of split there.
TEST(OrderByArrival, ExactTiesAcrossFileSetsPastTheScatterLimit) {
  // 200 file sets, each with arrivals at the same 30 instants: 6,000
  // requests.
  std::vector<std::vector<double>> times(200);
  for (auto& stream : times) {
    for (int k = 0; k < 30; ++k) stream.push_back(0.5 * k);
  }
  expect_sort_order(streams(times));
}

TEST(OrderByArrival, EveryArrivalEqualPastTheScatterLimit) {
  // 6,000 requests at one instant: the first split is over file-set ids.
  std::vector<std::vector<double>> times(300, std::vector<double>(20, 5.0));
  expect_sort_order(streams(times));
}

TEST(OrderByArrival, SameOrderInlineAndWithHelpers) {
  // Requests equal in both keys keep no particular order, but the one they
  // keep must not depend on the parallelism: 12,000 requests with many
  // such ties, each carrying its input position as its demand.
  std::vector<std::vector<double>> times(60);
  for (std::size_t fs = 0; fs < times.size(); ++fs) {
    for (std::size_t k = 0; k < 200; ++k) {
      times[fs].push_back(0.25 * static_cast<double>((k * 7 + fs) % 50));
    }
  }
  std::vector<Request> with_helpers = streams(times);
  for (std::size_t i = 0; i < with_helpers.size(); ++i) {
    with_helpers[i].demand = static_cast<double>(i);
  }
  std::vector<Request> in_line = with_helpers;
  order_by_arrival(with_helpers);
  with_every_helper_held([&] { order_by_arrival(in_line); });
  for (std::size_t i = 0; i < in_line.size(); ++i) {
    ASSERT_EQ(in_line[i].demand, with_helpers[i].demand) << "position " << i;
  }
}

TEST(OrderByArrival, OneRequest) {
  expect_sort_order(streams({{42.0}}));
}

TEST(OrderByArrival, OneFileSet) {
  std::vector<double> stream;
  for (int k = 0; k < 5'000; ++k) stream.push_back(std::sqrt(k));
  expect_sort_order(streams({stream}));
}

TEST(OrderByArrival, ClusteredStreams) {
  // Bursts a hundred-millionth of the span wide, between long silences:
  // buckets split again over their own span until they are short.
  std::vector<std::vector<double>> times(16);
  for (std::size_t fs = 0; fs < times.size(); ++fs) {
    for (int burst = 0; burst < 4; ++burst) {
      const double start = 1000.0 * burst + static_cast<double>(fs);
      for (int k = 0; k < 500; ++k) times[fs].push_back(start + 1e-8 * k);
    }
  }
  expect_sort_order(streams(times));
}

}  // namespace
}  // namespace anu::workload
