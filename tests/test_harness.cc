/**
 * @file
 * Harness tests: experiment runner, loop classes, paper data tables,
 * machine-spec field bounds.
 */

#include <gtest/gtest.h>

#include "mfusim/core/error.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/sim/scoreboard_sim.hh"

namespace mfusim
{
namespace
{

SimFactory
crayFactory()
{
    return [](const MachineConfig &cfg) {
        return std::unique_ptr<Simulator>(
            new ScoreboardSim(ScoreboardConfig::crayLike(), cfg));
    };
}

TEST(Harness, LoopClassMembership)
{
    EXPECT_EQ(loopsOf(LoopClass::kScalar).size(), 5u);
    EXPECT_EQ(loopsOf(LoopClass::kVectorizable).size(), 9u);
    EXPECT_STREQ(loopClassName(LoopClass::kScalar), "Scalar");
    EXPECT_STREQ(loopClassName(LoopClass::kVectorizable),
                 "Vectorizable");
}

TEST(Harness, PerLoopRatesMatchLoopCount)
{
    const auto rates = perLoopRates(
        crayFactory(), loopsOf(LoopClass::kScalar), configM11BR5());
    EXPECT_EQ(rates.size(), 5u);
    for (double r : rates) {
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(Harness, MeanIsHarmonicMeanOfPerLoopRates)
{
    const auto rates = perLoopRates(
        crayFactory(), loopsOf(LoopClass::kScalar), configM11BR5());
    const double mean =
        meanIssueRate(crayFactory(), LoopClass::kScalar,
                      configM11BR5());
    EXPECT_DOUBLE_EQ(mean, harmonicMean(rates));
}

TEST(Harness, AllConfigsReturnsFourMeans)
{
    const auto means =
        meanIssueRateAllConfigs(crayFactory(), LoopClass::kScalar);
    ASSERT_EQ(means.size(), 4u);
    // M5BR2 (index 3) is the most generous configuration.
    EXPECT_GE(means[3], means[0]);
}

TEST(PaperData, Table1SpotChecks)
{
    using namespace paper;
    EXPECT_DOUBLE_EQ(table1(LoopClass::kScalar, kSimple, 0), 0.24);
    EXPECT_DOUBLE_EQ(table1(LoopClass::kScalar, kCrayLike, 3), 0.55);
    EXPECT_DOUBLE_EQ(table1(LoopClass::kVectorizable, kSimple, 0),
                     0.21);
    EXPECT_DOUBLE_EQ(table1(LoopClass::kVectorizable, kCrayLike, 3),
                     0.59);
}

TEST(PaperData, Table1OrderingHoldsInPublishedData)
{
    // The published numbers themselves satisfy the machine ordering
    // our property tests assert for the reproduction.
    for (int cls = 0; cls < 2; ++cls) {
        const LoopClass lc = cls == 0 ? LoopClass::kScalar
                                      : LoopClass::kVectorizable;
        for (int cfg = 0; cfg < 4; ++cfg) {
            EXPECT_LE(paper::table1(lc, paper::kSimple, cfg),
                      paper::table1(lc, paper::kSerialMemory, cfg));
            EXPECT_LE(paper::table1(lc, paper::kSerialMemory, cfg),
                      paper::table1(lc, paper::kNonSegmented, cfg));
            EXPECT_LE(paper::table1(lc, paper::kNonSegmented, cfg),
                      paper::table1(lc, paper::kCrayLike, cfg));
        }
    }
}

TEST(PaperData, Table2SpotChecks)
{
    const auto pure_scalar =
        paper::table2(false, LoopClass::kScalar, 0);
    EXPECT_DOUBLE_EQ(pure_scalar.pseudo, 1.34);
    EXPECT_DOUBLE_EQ(pure_scalar.resource, 4.66);
    EXPECT_DOUBLE_EQ(pure_scalar.actual, 1.29);
    const auto serial_vector =
        paper::table2(true, LoopClass::kVectorizable, 3);
    EXPECT_DOUBLE_EQ(serial_vector.actual, 1.09);
}

TEST(PaperData, Table2ActualNeverExceedsComponents)
{
    for (int serial = 0; serial < 2; ++serial) {
        for (int cls = 0; cls < 2; ++cls) {
            const LoopClass lc = cls == 0 ? LoopClass::kScalar
                                          : LoopClass::kVectorizable;
            for (int cfg = 0; cfg < 4; ++cfg) {
                const auto row = paper::table2(serial != 0, lc, cfg);
                EXPECT_LE(row.actual, row.pseudo + 1e-9);
                EXPECT_LE(row.actual, row.resource + 1e-9);
            }
        }
    }
}

TEST(PaperData, SequentialTablesSpotChecks)
{
    EXPECT_DOUBLE_EQ(paper::table3_4(LoopClass::kScalar, 0, 1, false),
                     0.44);
    EXPECT_DOUBLE_EQ(paper::table3_4(LoopClass::kScalar, 3, 8, false),
                     0.61);
    EXPECT_DOUBLE_EQ(
        paper::table3_4(LoopClass::kVectorizable, 0, 1, true), 0.45);
}

TEST(PaperData, Station1MatchesTable1CrayLike)
{
    // The paper's own cross-table consistency: one issue station is
    // the CRAY-like machine.
    for (int cls = 0; cls < 2; ++cls) {
        const LoopClass lc = cls == 0 ? LoopClass::kScalar
                                      : LoopClass::kVectorizable;
        for (int cfg = 0; cfg < 4; ++cfg) {
            EXPECT_DOUBLE_EQ(paper::table3_4(lc, cfg, 1, false),
                             paper::table1(lc, paper::kCrayLike, cfg));
            EXPECT_DOUBLE_EQ(paper::table5_6(lc, cfg, 1, true),
                             paper::table1(lc, paper::kCrayLike, cfg));
        }
    }
}

TEST(PaperData, RuuTableSpotChecks)
{
    EXPECT_EQ(paper::ruuSizes()[0], 10);
    EXPECT_EQ(paper::ruuSizes()[5], 100);
    // Single issue unit, RUU 40, M11BR5: the 0.72 quoted in the
    // paper's section 3.3 / 5.3 discussion.
    EXPECT_DOUBLE_EQ(paper::table7_8(LoopClass::kScalar, 0, 3, 1,
                                     false),
                     0.72);
    // Vectorizable best case: 4 units, RUU 100, M5BR2 -> 2.01.
    EXPECT_DOUBLE_EQ(paper::table7_8(LoopClass::kVectorizable, 3, 5,
                                     4, false),
                     2.01);
}

TEST(PaperData, RuuOneBusNeverExceedsNBus)
{
    for (int cls = 0; cls < 2; ++cls) {
        const LoopClass lc = cls == 0 ? LoopClass::kScalar
                                      : LoopClass::kVectorizable;
        for (int cfg = 0; cfg < 4; ++cfg) {
            for (int size = 0; size < 6; ++size) {
                for (int units = 1; units <= 4; ++units) {
                    EXPECT_LE(
                        paper::table7_8(lc, cfg, size, units, true),
                        paper::table7_8(lc, cfg, size, units, false) +
                            1e-9);
                }
            }
        }
    }
}

TEST(SpecParse, NumericFieldsOutOfRangeAreConfigError)
{
    const MachineConfig cfg = configM11BR5();
    // A width that would wrap `unsigned` to 2, and a machine whose
    // per-bank state alone would take gigabytes.
    EXPECT_THROW(parseMachineSpec("ruu:4294967298:20", cfg), ConfigError);
    EXPECT_THROW(parseMachineSpec("ruu:50000000:50000000", cfg),
                 ConfigError);
    EXPECT_THROW(parseMachineSpec("ooo:-1", cfg), ConfigError);
    EXPECT_THROW(parseMachineSpec("seq:65", cfg), ConfigError);
    EXPECT_THROW(parseMachineSpec("ruu:4:4097", cfg), ConfigError);
    EXPECT_THROW(parseMachineSpec("tomasulo:65:1", cfg), ConfigError);
    EXPECT_THROW(parseMachineSpec("tomasulo:3:65", cfg), ConfigError);
    // The caps themselves are accepted.
    EXPECT_EQ(parseMachineSpec("ruu:64:4096", cfg)->name(),
              "RUU(w=64, size=4096, N-Bus)");
    EXPECT_EQ(parseMachineSpec("tomasulo:64:64", cfg)->name(),
              "Tomasulo(rs=64, cdb=64)");
}

} // namespace
} // namespace mfusim
