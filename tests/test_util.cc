/**
 * @file
 * Unit tests for src/util: stats, units, quantization, tables, RNG,
 * and the fatal exit path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "util/fast_rng.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/quantize.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace lt;

TEST(RunningStats, MeanAndVariance)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(x);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 2.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(7);
    RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.gaussian(2.0, 3.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Units, DbConversionsRoundTrip)
{
    EXPECT_NEAR(units::dbToLinear(3.0), 1.9953, 1e-3);
    EXPECT_NEAR(units::linearToDb(2.0), 3.0103, 1e-3);
    EXPECT_NEAR(units::dbToLinear(units::linearToDb(7.5)), 7.5, 1e-9);
    // -25 dBm photodetector sensitivity = 3.16 uW.
    EXPECT_NEAR(units::dbmToWatt(-25.0), 3.1623e-6, 1e-9);
    EXPECT_NEAR(units::wattToDbm(1e-3), 0.0, 1e-9);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(units::fmtTime(47e-12, 1), "47.0 ps");
    EXPECT_EQ(units::fmtPower(14.75, 2), "14.75 W");
    EXPECT_EQ(units::fmtPower(0.05, 1), "50.0 mW");
    EXPECT_EQ(units::fmtEnergy(1.94e-5, 1), "19.4 uJ");
    EXPECT_EQ(units::fmtAreaMm2(60.3e-6, 1), "60.3 mm^2");
    EXPECT_EQ(units::fmtSci(0.0194, 2), "1.94e-02");
}

TEST(Units, ConstructionHelpers)
{
    EXPECT_DOUBLE_EQ(units::mW(50), 0.05);
    EXPECT_DOUBLE_EQ(units::GHz(5), 5e9);
    EXPECT_DOUBLE_EQ(units::um2(100), 1e-10);
    EXPECT_DOUBLE_EQ(units::mm2(60.3) * 1e6, 60.3);
    EXPECT_DOUBLE_EQ(units::ps(200), 2e-10);
}

TEST(Quantize, UnitGridEndpoints)
{
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(1.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(-1.0, 4), -1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(0.0, 4), 0.0);
    // Clipping outside full scale.
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(2.5, 4), 1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(-2.5, 4), -1.0);
}

TEST(Quantize, StepSizeMatchesBits)
{
    // 4-bit symmetric grid: qmax = 7 -> step 1/7.
    double q1 = quantizeSymmetricUnit(0.5, 4);
    EXPECT_NEAR(q1 * 7.0, std::round(0.5 * 7.0), 1e-12);
    // 8-bit: qmax = 127.
    double q2 = quantizeSymmetricUnit(0.5, 8);
    EXPECT_NEAR(q2 * 127.0, std::round(0.5 * 127.0), 1e-12);
}

TEST(Quantize, ErrorBoundedByHalfStep)
{
    Rng rng(3);
    for (int bits : {2, 4, 6, 8}) {
        double step = 1.0 / quantLevels(bits);
        for (int i = 0; i < 200; ++i) {
            double x = rng.uniform(-1.0, 1.0);
            EXPECT_LE(std::abs(quantizeSymmetricUnit(x, bits) - x),
                      step / 2.0 + 1e-12);
        }
    }
}

TEST(Quantize, ScaledQuantization)
{
    double v = quantizeSymmetric(3.0, 4.0, 8);
    EXPECT_NEAR(v, 3.0, 4.0 / 127.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetric(1.0, 0.0, 8), 0.0);
}

TEST(Rng, Determinism)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.gaussian(1.5, 0.5));
    EXPECT_NEAR(s.mean(), 1.5, 5e-3);
    EXPECT_NEAR(s.stddev(), 0.5, 5e-3);
}

TEST(Rng, ZeroStddevIsDeterministic)
{
    Rng rng(1);
    EXPECT_DOUBLE_EQ(rng.gaussian(4.2, 0.0), 4.2);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    // Child stream differs from parent continuation.
    EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, FillGaussianMatchesPerCallSequence)
{
    // fillGaussian is a drop-in replacement for a loop of gaussian()
    // calls: the value sequence AND the engine-state consumption must
    // match exactly (fresh-distribution semantics per element — no
    // cached second polar value leaks between elements). The DPTC
    // packed kernel relies on this to batch phase draws.
    Rng bulk(0xF111), percall(0xF111);
    std::vector<double> out(257);
    bulk.fillGaussian(out, 0.25, 1.5);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], percall.gaussian(0.25, 1.5)) << i;

    // Non-positive std writes the mean and consumes no engine state…
    bulk.fillGaussian(out, 7.0, 0.0);
    for (double v : out)
        EXPECT_EQ(v, 7.0);
    // …so the two generators stay bit-synchronized afterwards.
    EXPECT_EQ(bulk.gaussian(0.0, 1.0), percall.gaussian(0.0, 1.0));
}

TEST(Rng, RawStreamMatchesStdMt19937_64)
{
    // The blocked engine must be u64-for-u64 identical to
    // std::mt19937_64 — this is the foundation the whole bit-exact
    // contract stands on, checked across several refill boundaries.
    for (uint64_t seed : {0ULL, 1ULL, 42ULL, 0x4c54'2024ULL}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(rng.nextU64(), ref()) << "seed " << seed
                                            << " draw " << i;
    }
}

TEST(Rng, DistributionsMatchStdSequences)
{
    // Every distribution method replays the exact value sequence of
    // the std:: distribution it replaces, drawn over one shared
    // engine — interleaved, so consumption counts must agree too.
    Rng rng(0xD15C0);
    std::mt19937_64 ref(0xD15C0);
    for (int i = 0; i < 5000; ++i) {
        {
            // gaussian(): a FRESH std::normal_distribution per draw
            // (the historical per-call pattern; no saved second value).
            std::normal_distribution<double> d(0.5, 2.0);
            ASSERT_EQ(rng.gaussian(0.5, 2.0), d(ref)) << i;
        }
        {
            std::uniform_real_distribution<double> d(-1.0, 3.0);
            ASSERT_EQ(rng.uniform(-1.0, 3.0), d(ref)) << i;
        }
        {
            std::uniform_int_distribution<int64_t> d(-7, 900);
            ASSERT_EQ(rng.uniformInt(-7, 900), d(ref)) << i;
        }
        {
            std::bernoulli_distribution d(0.3);
            ASSERT_EQ(rng.bernoulli(0.3), d(ref)) << i;
        }
    }
}

TEST(Rng, FillGaussianScaledMatchesPerCall)
{
    // Per-element stddevs with zero-std holes interleaved: values AND
    // consumption must match the scalar loop, including the rule that
    // a non-positive std writes the mean and consumes nothing.
    Rng bulk(0xCAFE), percall(0xCAFE);
    std::vector<double> stds(700), out(700);
    Rng stdgen(99);
    for (size_t i = 0; i < stds.size(); ++i) {
        if (i % 3 == 2 || i % 17 == 0)
            stds[i] = 0.0; // holes
        else
            stds[i] = stdgen.uniform(0.01, 2.0);
    }
    bulk.fillGaussianScaled(out, stds, 0.125);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], percall.gaussian(0.125, stds[i])) << i;
    // Generators stay bit-synchronized afterwards.
    EXPECT_EQ(bulk.gaussian(0.0, 1.0), percall.gaussian(0.0, 1.0));
}

TEST(Rng, VectorHelpersDelegateToBulkFills)
{
    Rng a(31), b(31);
    std::vector<double> u = a.uniformVector(123, -2.0, 2.0);
    std::vector<double> fu(123);
    b.fillUniform(fu, -2.0, 2.0);
    EXPECT_EQ(u, fu);

    std::vector<double> g = a.gaussianVector(123, 0.5, 1.5);
    std::vector<double> fg(123);
    b.fillGaussian(fg, 0.5, 1.5);
    EXPECT_EQ(g, fg);
}

TEST(Rng, ShuffleViaUrbgMatchesStdEngine)
{
    // std::shuffle over the urbg() facade permutes exactly as handing
    // it the underlying std::mt19937_64 would (the dataset builders'
    // class-mixing shuffles are pinned by this).
    std::vector<int> mine(257), ref(257);
    std::iota(mine.begin(), mine.end(), 0);
    std::iota(ref.begin(), ref.end(), 0);
    Rng rng(0x5AFE);
    std::mt19937_64 eng(0x5AFE);
    std::shuffle(mine.begin(), mine.end(), rng.urbg());
    std::shuffle(ref.begin(), ref.end(), eng);
    EXPECT_EQ(mine, ref);
}

TEST(Rng, DrawCountCountsAcceptedGaussians)
{
    Rng rng(8);
    EXPECT_EQ(rng.drawCount(), 0u);
    rng.gaussian(0.0, 1.0);
    EXPECT_EQ(rng.drawCount(), 1u);
    rng.gaussian(0.0, 0.0); // zero-std: no draw
    EXPECT_EQ(rng.drawCount(), 1u);
    std::vector<double> out(100);
    rng.fillGaussian(out, 0.0, 1.0);
    EXPECT_EQ(rng.drawCount(), 101u);
    std::vector<double> stds(50, 1.0), scaled(50);
    for (size_t i = 0; i < stds.size(); i += 2)
        stds[i] = 0.0;
    rng.fillGaussianScaled(scaled, stds);
    EXPECT_EQ(rng.drawCount(), 126u);
}

TEST(FastRng, GaussianMomentsAtSeveralPoints)
{
    // The Fast sampler's statistical-equivalence gate: mean, stddev,
    // and excess kurtosis at several (mean, std) operating points.
    struct Point
    {
        double mean, std;
    };
    for (const Point p : {Point{0.0, 1.0}, Point{1.5, 0.5},
                          Point{-2.0, 0.03}}) {
        FastRng rng(0xFA57 + static_cast<uint64_t>(p.std * 1000));
        const int n = 400000;
        double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
        for (int i = 0; i < n; ++i) {
            double z = (rng.gaussian(p.mean, p.std) - p.mean) / p.std;
            s1 += z;
            s2 += z * z;
            s3 += z * z * z;
            s4 += z * z * z * z;
        }
        EXPECT_NEAR(s1 / n, 0.0, 6e-3) << p.mean << "," << p.std;
        EXPECT_NEAR(s2 / n, 1.0, 8e-3) << p.mean << "," << p.std;
        EXPECT_NEAR(s3 / n, 0.0, 2e-2) << p.mean << "," << p.std;
        EXPECT_NEAR(s4 / n, 3.0, 6e-2) << p.mean << "," << p.std;
    }
}

TEST(FastRng, KolmogorovSmirnovAgainstNormalCdf)
{
    // One-sample KS against Phi; D * sqrt(n) < 1.95 rejects only at
    // alpha ~= 0.001 — a real distribution defect (a broken layer
    // table, a biased tail) blows far past this.
    FastRng rng(0x4B5);
    const size_t n = 200000;
    std::vector<double> xs(n);
    for (double &x : xs)
        x = rng.gaussian(0.0, 1.0);
    std::sort(xs.begin(), xs.end());
    auto phi = [](double x) {
        return 0.5 * std::erfc(-x / std::sqrt(2.0));
    };
    double d = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double f = phi(xs[i]);
        d = std::max(d, std::abs(f - static_cast<double>(i) / n));
        d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    }
    EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95);
}

TEST(FastRng, DeterministicAndCounted)
{
    FastRng a(77), b(77);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0)) << i;
    EXPECT_EQ(a.drawCount(), 1000u);
    a.gaussian(3.0, 0.0); // zero-std: no draw, no state consumed
    EXPECT_EQ(a.drawCount(), 1000u);
    EXPECT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));

    // Distinct seeds diverge.
    FastRng c(78);
    EXPECT_NE(c.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
}

TEST(Table, AlignmentAndCsv)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream txt;
    t.print(txt);
    EXPECT_NE(txt.str().find("| alpha | 1     |"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22\n");
}

TEST(Table, RowCount)
{
    Table t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rowCount(), 1u);
}

// ---- fatal exit path ----------------------------------------------------

/**
 * lt_fatal must end the process with status 1 whatever state the global
 * thread pool is in. Each test pins the pool to 4 threads, so the
 * workers are real on any host core count and in any test order, and
 * restores the default pool afterwards.
 */
class Logging : public ::testing::Test
{
  protected:
    void SetUp() override { ThreadPool::setGlobalThreads(4); }
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_F(Logging, FatalExitsWithStatusOneWhileGlobalPoolIsLive)
{
    std::atomic<size_t> shards_run{0};
    ThreadPool::global().parallelFor(
        4, [&](size_t, size_t, size_t) { ++shards_run; }, 4);
    ASSERT_EQ(shards_run.load(), 4u);

    // The death-test child is forked from a process whose pool has
    // workers; those threads do not exist in the child.
    EXPECT_EXIT(lt_fatal("bad config with a live pool"),
                ::testing::ExitedWithCode(1),
                "fatal: bad config with a live pool");
}

TEST_F(Logging, FatalRaisedOnPoolWorkerExitsWithStatusOne)
{
    // Re-run the test in a fresh child process, so the pool built in
    // SetUp has running workers there. gtest restores its flags after
    // every test.
#ifdef GTEST_FLAG_SET
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> raised{false};
    auto body = [&](size_t, size_t, size_t shard) {
        if (std::this_thread::get_id() != caller) {
            // Exactly one worker raises; the rest return to the pool.
            if (!raised.exchange(true))
                lt_fatal("pool worker shard ", shard, " failed");
            return;
        }
        // Park the calling thread in its shard, so the other three
        // shards must run on workers. If no worker ever raises the
        // fatal, the statement returns and the death test fails.
        std::this_thread::sleep_for(std::chrono::seconds(30));
    };
    EXPECT_EXIT(ThreadPool::global().parallelFor(4, body, 4),
                ::testing::ExitedWithCode(1),
                "fatal: pool worker shard [0-3] failed");
}

} // namespace
