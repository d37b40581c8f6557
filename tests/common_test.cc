// Unit tests for src/common: units, RNG streams, statistics, tables,
// the thread pool, and the logger's per-thread severity threshold.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace mrapid {
namespace {

// ---- units ---------------------------------------------------------

TEST(Units, LiteralsProduceExactByteCounts) {
  EXPECT_EQ(1_KB, 1024);
  EXPECT_EQ(1_MB, 1024 * 1024);
  EXPECT_EQ(3_GB, 3LL * 1024 * 1024 * 1024);
  EXPECT_EQ(megabytes(1.5), 1536 * 1024);
}

TEST(Units, RateSecondsFor) {
  const Rate rate = Rate::mb_per_sec(100);
  EXPECT_DOUBLE_EQ(rate.seconds_for(100_MB), 1.0);
  EXPECT_DOUBLE_EQ(rate.seconds_for(0), 0.0);
  EXPECT_FALSE(Rate{}.valid());
  EXPECT_TRUE(rate.valid());
}

TEST(Units, GbitConversion) {
  // 1 Gbit/s = 125 MB/s (decimal).
  EXPECT_NEAR(Rate::gbit_per_sec(1).bytes_per_sec, 125e6, 1.0);
}

TEST(Units, FormatBytesPicksUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(10_MB), "10 MB");
  EXPECT_EQ(format_bytes(2_GB), "2 GB");
}

TEST(Units, ToMbRoundTrips) {
  EXPECT_DOUBLE_EQ(to_mb(10_MB), 10.0);
  EXPECT_DOUBLE_EQ(to_gb(3_GB), 3.0);
}

// ---- rng -----------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  RngStream a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsAreIndependentButDeterministic) {
  RngStream a(7, "alpha"), a2(7, "alpha"), b(7, "beta");
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  RngStream a3(7, "alpha");
  EXPECT_NE(a3.next_u64(), RngStream(7, "beta").next_u64());
  (void)b;
}

TEST(Rng, NextDoubleInUnitInterval) {
  RngStream rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextIntRespectsBoundsInclusive) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values show up
}

TEST(Rng, NextIntDegenerateRange) {
  RngStream rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_int(42, 42), 42);
}

// next_int's sequences, pinned: 16 draws per range from one seeded
// stream, then the next raw word (equal where no draw was rejected).
TEST(Rng, NextIntReproducesGoldenSequences) {
  struct Case {
    std::int64_t lo, hi;
    std::int64_t draws[16];
    std::uint64_t next;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const Case cases[] = {
      {42, 42, {42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42},
       13059749282476133436ull},
      {0, 25, {0, 10, 19, 12, 15, 21, 8, 11, 2, 18, 6, 12, 16, 8, 4, 16}, 13059749282476133436ull},
      {0, 94, {1, 33, 63, 15, 23, 6, 40, 6, 82, 33, 93, 19, 21, 52, 87, 7}, 13059749282476133436ull},
      {-3, (std::int64_t{1} << 32) + 3,  // 2^32 + 7 values
       {3121896389, 731676088, 12344730, 1213221967, 931722914, 1805742249, 3350620560,
        2415429122, 3978742579, 2560120516, 3837022683, 1667825665, 3136332413, 3944572446,
        516423013, 4175244645},
       13059749282476133436ull},
      {-(std::int64_t{1} << 62), std::int64_t{1} << 62,  // 2^63 + 1 values: half rejected
       {3403012959694872442, 1845115323787413459, -1751888939931551573, 2817167484080261576,
        1510658381117186134, -1608161041845344680, 1374669095824433448, -1644433687479205052,
        -1246253057966975570, -3796407776452406459, -3908274829923480846, -1400100936027199224,
        -936822750778517162, -2478638972785454435, 345180323596267734, 3174020248460271988},
       9891134510154201967ull},
      {kMin, kMax,  // the full 64-bit span: raw words
       {8014698978122260346, -2345056183975588778, 6456801342214801363, -5625745994155186956,
        -52059113064346103, 2859797078495836331, 7428853502507649480, -6098446520908363705,
        -1613620495953581064, -1097659791725648838, 6122344399544574038, 3003524976582043224,
        -3524122884902011730, -6440061093309084704, 5986355114251821352, 2967252330948182852},
       13059749282476133436ull},
  };
  for (const Case& c : cases) {
    RngStream rng(2017, "next_int.golden");
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(rng.next_int(c.lo, c.hi), c.draws[i]) << "[" << c.lo << ", " << c.hi << "] draw " << i;
    }
    EXPECT_EQ(rng.next_u64(), c.next) << "[" << c.lo << ", " << c.hi << "]";
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  RngStream rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ZipfRanksInRange) {
  RngStream rng(13);
  const ZipfSampler zipf(1000, 1.1);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t r = zipf(rng);
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 1000);
  }
}

TEST(Rng, ZipfIsHeavyHeaded) {
  RngStream rng(13);
  const int n = 100000;
  const ZipfSampler zipf(10000, 1.2);
  int rank1 = 0, rank100plus = 0;
  for (int i = 0; i < n; ++i) {
    const std::int64_t r = zipf(rng);
    if (r == 1) ++rank1;
    if (r >= 100) ++rank100plus;
  }
  // Rank 1 must be dramatically more likely than any deep rank.
  EXPECT_GT(rank1, n / 20);
  EXPECT_GT(rank100plus, 0);  // but the tail is not empty
}

TEST(Rng, ZipfSingleElement) {
  RngStream rng(1);
  EXPECT_EQ(ZipfSampler(1, 1.0)(rng), 1);
}

// One attempt of the per-call rejection-inversion formula (Hörmann &
// Derflinger) on the 53 uniform bits `r53`, with every (n, s) constant
// recomputed: the rank it accepts, or 0 when it rejects. The oracle
// for ZipfSampler, which must give the same answer for every r53,
// whether its guide table or its formula decides.
std::int64_t zipf_attempt_per_call(std::uint64_t r53, std::int64_t n, double s) {
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    const double log_x = std::log(x);
    if (std::fabs(1.0 - s) < 1e-12) return log_x;
    return (std::exp((1.0 - s) * log_x) - 1.0) / (1.0 - s);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double h_int_x1 = h_integral(1.5) - 1.0;
  const double h_int_n = h_integral(nd + 0.5);
  const double u = h_int_n + static_cast<double>(r53) * 0x1.0p-53 * (h_int_x1 - h_int_n);
  double x;
  if (std::fabs(1.0 - s) < 1e-12) {
    x = std::exp(u);
  } else {
    x = std::exp(std::log(1.0 + u * (1.0 - s)) / (1.0 - s));
  }
  const double k = std::floor(x + 0.5);
  if (!(k >= 1 && k <= nd)) return 0;
  if (k - x <= h_int_x1 || u >= h_integral(k + 0.5) - h(k)) {
    return static_cast<std::int64_t>(k);
  }
  return 0;
}

// The per-call formula's draw: attempts on next_double()'s bits until
// one accepts.
std::int64_t zipf_per_call(RngStream& rng, std::int64_t n, double s) {
  if (n == 1) return 1;
  for (;;) {
    if (const std::int64_t k = zipf_attempt_per_call(rng.next_u64() >> 11, n, s)) return k;
  }
}

TEST(ZipfSampler, DrawsTheSameRanksAsThePerCallFormula) {
  for (const std::int64_t n : {1, 2, 1000, 100000}) {
    for (const double s : {0.5, 1.0, 1.1, 2.0}) {
      const ZipfSampler zipf(n, s);
      RngStream sampled(n * 31 + static_cast<std::int64_t>(s * 10), "zipf");
      RngStream oracle = sampled;
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(zipf(sampled), zipf_per_call(oracle, n, s))
            << "n=" << n << " s=" << s << " draw " << i;
      }
      // Rejections consumed the same draws too.
      EXPECT_EQ(sampled.next_u64(), oracle.next_u64()) << "n=" << n << " s=" << s;
    }
  }
}

// The text generator's setting, over a stream as long as a few corpus
// files.
TEST(ZipfSampler, TextGeneratorStreamMatchesThePerCallFormula) {
  const ZipfSampler zipf(100000, 1.1);
  RngStream sampled(2017, "textgen.body");
  RngStream oracle = sampled;
  for (int i = 0; i < 2000000; ++i) {
    ASSERT_EQ(zipf(sampled), zipf_per_call(oracle, 100000, 1.1)) << "draw " << i;
  }
  EXPECT_EQ(sampled.next_u64(), oracle.next_u64());
}

class ZipfGuide : public ::testing::TestWithParam<std::tuple<std::int64_t, double>> {};

// Every guide cell, at its first and last r53 and at 8 seeded interior
// ones, accepts or rejects as the per-call formula does, with the same
// rank. Cells the table answers are where a wrong proof would show.
TEST_P(ZipfGuide, EveryCellAgreesWithThePerCallFormula) {
  const auto [n, s] = GetParam();
  const ZipfSampler zipf(n, s);
  constexpr std::uint64_t kCellSpan = std::uint64_t{1} << ZipfSampler::kCellShift;
  RngStream interior(static_cast<std::uint64_t>(n) * 131 + static_cast<std::uint64_t>(s * 10),
                     "zipf.guide");
  for (std::uint64_t cell = 0; cell < (std::uint64_t{1} << ZipfSampler::kCellBits); ++cell) {
    const std::uint64_t first = cell * kCellSpan;
    std::uint64_t probes[10] = {first, first + kCellSpan - 1};
    for (int i = 2; i < 10; ++i) probes[i] = first + interior.next_u64() % kCellSpan;
    for (const std::uint64_t r53 : probes) {
      ASSERT_EQ(zipf.attempt(r53), zipf_attempt_per_call(r53, n, s))
          << "n=" << n << " s=" << s << " cell " << cell << " r53 " << r53;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ZipfGuide,
                         ::testing::Combine(::testing::Values(std::int64_t{2}, std::int64_t{1000},
                                                              std::int64_t{100000},
                                                              std::int64_t{1} << 20),
                                            ::testing::Values(0.5, 1.0, 1.1, 2.0)));

TEST(ZipfSampler, GuideTableAnswersMostAttemptsAtTheTextSetting) {
  // Every cell is an equal share of the attempts.
  const ZipfSampler zipf(100000, 1.1);
  EXPECT_GT(zipf.tabulated_cells(), (std::size_t{1} << ZipfSampler::kCellBits) * 7 / 10);
}

TEST(ZipfSampler, FootprintCountsTheBoundsAndTheGuideTable) {
  constexpr std::size_t kTable = (std::size_t{1} << ZipfSampler::kCellBits) * sizeof(std::uint16_t);
  EXPECT_GE(ZipfSampler(100000, 1.1).footprint_bytes(), 65536 * sizeof(double) + kTable);
  EXPECT_GE(ZipfSampler(1000, 1.1).footprint_bytes(), 1000 * sizeof(double) + kTable);
}

TEST(Rng, ForkIsDeterministic) {
  RngStream parent(77);
  RngStream c1 = parent.fork("child");
  RngStream c2 = RngStream(77).fork("child");
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, StableHashIsStable) {
  EXPECT_EQ(stable_hash64("mrapid"), stable_hash64("mrapid"));
  EXPECT_NE(stable_hash64("mrapid"), stable_hash64("mrapie"));
}

// ---- digest accumulator -----------------------------------------------

// Fnv64::mix(uint64) folds the high zero bytes into one multiply; it
// must equal mixing all eight little-endian bytes one by one.
void mix_byte_loop(Fnv64& h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  h.mix_bytes(bytes, sizeof(bytes));
}

TEST(Fnv64, MixFoldsZeroBytesExactly) {
  std::vector<std::uint64_t> values = {0, UINT64_MAX};
  for (int k = 1; k < 8; ++k) {
    const std::uint64_t boundary = std::uint64_t{1} << (8 * k);
    values.push_back(boundary - 1);
    values.push_back(boundary);
  }
  RngStream rng(2024, "fnv-fold");
  for (int i = 0; i < 100000; ++i) {
    // Random widths, so every count of high zero bytes is drawn.
    const int width = static_cast<int>(rng.next_int(0, 64));
    const std::uint64_t v = rng.next_u64();
    values.push_back(width == 64 ? v : v & ((std::uint64_t{1} << width) - 1));
  }
  Fnv64 folded_chain;
  Fnv64 byte_chain;
  for (const std::uint64_t v : values) {
    Fnv64 folded;
    Fnv64 byte_wise;
    folded.mix(v);
    mix_byte_loop(byte_wise, v);
    ASSERT_EQ(folded.value(), byte_wise.value()) << "v = " << v;
    // Chained, as a digest mixes them.
    folded_chain.mix(v);
    mix_byte_loop(byte_chain, v);
  }
  EXPECT_EQ(folded_chain.value(), byte_chain.value());
}

// A digest step folds one partition from the state the digest had
// reached, so resuming from value() must continue the fold exactly.
TEST(Fnv64, ResumeFromValueContinuesTheFold) {
  RngStream rng(2025, "fnv-resume");
  for (int stream = 0; stream < 32; ++stream) {
    std::vector<unsigned char> bytes(static_cast<std::size_t>(rng.next_int(0, 200)));
    for (unsigned char& byte : bytes) byte = static_cast<unsigned char>(rng.next_int(0, 255));
    Fnv64 whole;
    whole.mix_bytes(bytes.data(), bytes.size());
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      Fnv64 prefix;
      prefix.mix_bytes(bytes.data(), cut);
      Fnv64 resumed = Fnv64::resume(prefix.value());
      resumed.mix_bytes(bytes.data() + cut, bytes.size() - cut);
      ASSERT_EQ(resumed.value(), whole.value()) << "stream " << stream << " cut " << cut;
    }
  }
  // Resuming from a fresh fold's value is a fresh fold.
  Fnv64 fresh;
  EXPECT_EQ(Fnv64::resume(Fnv64().value()).mix(std::uint64_t{42}).value(),
            fresh.mix(std::uint64_t{42}).value());
}

// ---- stats ---------------------------------------------------------

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeMatchesDirect) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Percentiles, QuantilesInterpolate) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.quantile(0.9), 90.1, 1e-9);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.quantile(0.5), 0.0);
}

TEST(Histogram, BinsAndSaturation) {
  Histogram h(0.0, 10.0, 5);
  h.add(-5.0);   // clamps to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(15.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  const std::string art = h.to_ascii();
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

// ---- table ---------------------------------------------------------

TEST(Table, RendersHeadersAndRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"только"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumAndPctFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.425), "42.5%");
}

TEST(SeriesReport, ValuesAndImprovementColumns) {
  SeriesReport report("fig", "x");
  report.add_point("base", 1, 10.0);
  report.add_point("fast", 1, 5.0);
  report.set_baseline("base");
  EXPECT_DOUBLE_EQ(report.value("base", 1), 10.0);
  EXPECT_TRUE(std::isnan(report.value("fast", 2)));
  const std::string out = report.to_string();
  EXPECT_NE(out.find("impr(fast)"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
}

TEST(SeriesReport, XsSortedAndDeduped) {
  SeriesReport report("fig", "x");
  report.add_point("s", 4, 1);
  report.add_point("s", 2, 1);
  report.add_point("t", 2, 1);
  const auto xs = report.xs();
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 2);
  EXPECT_DOUBLE_EQ(xs[1], 4);
}

// ---- thread pool ----------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 3 || i == 11) {
        throw std::runtime_error("boom-" + std::to_string(i));
      }
    });
    FAIL() << "parallel_for swallowed the worker exception";
  } catch (const std::runtime_error& e) {
    // The lowest-index failure wins, deterministically.
    EXPECT_STREQ(e.what(), "boom-3");
  }
  // Every index still ran: the pool waits for all workers before
  // rethrowing, so no task is abandoned mid-flight.
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- logger per-thread threshold ------------------------------------

TEST(Logger, ThreadThresholdOverridesGlobalLevel) {
  ASSERT_FALSE(Logger::thread_threshold().has_value());
  const auto previous = Logger::set_thread_threshold(LogLevel::kError);
  EXPECT_FALSE(previous.has_value());
  EXPECT_EQ(Logger::thread_threshold(), LogLevel::kError);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
  Logger::set_thread_threshold(previous);
  EXPECT_FALSE(Logger::thread_threshold().has_value());
}

TEST(Logger, ThreadThresholdIsPerThread) {
  const auto previous = Logger::set_thread_threshold(LogLevel::kError);
  std::optional<LogLevel> seen_on_worker = LogLevel::kError;
  std::thread worker([&] { seen_on_worker = Logger::thread_threshold(); });
  worker.join();
  Logger::set_thread_threshold(previous);
  EXPECT_FALSE(seen_on_worker.has_value());
}

TEST(Logger, ScopedThresholdRestoresOnExit) {
  {
    ScopedLogThreshold guard(LogLevel::kOff);
    EXPECT_EQ(Logger::thread_threshold(), LogLevel::kOff);
    EXPECT_FALSE(Logger::instance().enabled(LogLevel::kError));
  }
  EXPECT_FALSE(Logger::thread_threshold().has_value());
}

}  // namespace
}  // namespace mrapid
