#include "hw/power_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace powerlens::hw {
namespace {

class PowerModelTest : public ::testing::Test {
 protected:
  Platform platform_ = make_agx();
  PowerModel model_{platform_};
};

TEST_F(PowerModelTest, VoltageEndpoints) {
  EXPECT_DOUBLE_EQ(model_.gpu_voltage(platform_.gpu.freqs_hz.front()),
                   platform_.gpu.v_min);
  EXPECT_DOUBLE_EQ(model_.gpu_voltage(platform_.gpu.freqs_hz.back()),
                   platform_.gpu.v_max);
}

TEST_F(PowerModelTest, VoltageMonotoneInFrequency) {
  double prev = 0.0;
  for (double f : platform_.gpu.freqs_hz) {
    const double v = model_.gpu_voltage(f);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST_F(PowerModelTest, VoltageClampedOutsideLadder) {
  EXPECT_DOUBLE_EQ(model_.gpu_voltage(1.0), platform_.gpu.v_min);
  EXPECT_DOUBLE_EQ(model_.gpu_voltage(1e12), platform_.gpu.v_max);
}

TEST_F(PowerModelTest, DynamicPowerScalesWithActivity) {
  const double f = platform_.gpu.freqs_hz.back();
  const double full = model_.gpu_dynamic_w(f, 1.0);
  const double half = model_.gpu_dynamic_w(f, 0.5);
  EXPECT_NEAR(half, full / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(model_.gpu_dynamic_w(f, 0.0), 0.0);
}

TEST_F(PowerModelTest, ActivityClamped) {
  const double f = platform_.gpu.freqs_hz.back();
  EXPECT_DOUBLE_EQ(model_.gpu_dynamic_w(f, 2.0),
                   model_.gpu_dynamic_w(f, 1.0));
  EXPECT_DOUBLE_EQ(model_.gpu_dynamic_w(f, -1.0), 0.0);
}

TEST_F(PowerModelTest, DynamicPowerSuperlinearInFrequency) {
  // P = C V(f)^2 f with V increasing: doubling f more than doubles power.
  const double f_lo = platform_.gpu.freqs_hz[4];
  const double f_hi = platform_.gpu.freqs_hz.back();
  const double p_lo = model_.gpu_dynamic_w(f_lo, 1.0);
  const double p_hi = model_.gpu_dynamic_w(f_hi, 1.0);
  EXPECT_GT(p_hi / p_lo, f_hi / f_lo);
}

TEST_F(PowerModelTest, StaticPowerGrowsWithFrequency) {
  EXPECT_GT(model_.gpu_static_w(platform_.gpu.freqs_hz.back()),
            model_.gpu_static_w(platform_.gpu.freqs_hz.front()));
}

TEST_F(PowerModelTest, TotalIncludesBasePower) {
  const ActivityState idle{0.0, 0.0, 0.0};
  const double p = model_.total_w(platform_.gpu.freqs_hz.front(),
                                  platform_.cpu.freqs_hz.front(), idle);
  EXPECT_GE(p, platform_.base_power_w);
}

TEST_F(PowerModelTest, TotalDecomposesAdditively) {
  const ActivityState act{0.7, 0.4, 0.3};
  const double gpu_f = platform_.gpu.freqs_hz[5];
  const double cpu_f = platform_.cpu.freqs_hz[3];
  const double total = model_.total_w(gpu_f, cpu_f, act);
  const double sum = model_.gpu_dynamic_w(gpu_f, act.gpu_compute) +
                     model_.gpu_static_w(gpu_f) +
                     model_.cpu_power_w(cpu_f, act.cpu) +
                     model_.mem_power_w(act.mem) + platform_.base_power_w;
  EXPECT_NEAR(total, sum, 1e-12);
}

TEST_F(PowerModelTest, MaxPowerInPlausibleBoardRange) {
  const ActivityState full{1.0, 1.0, 1.0};
  const double p = model_.total_w(platform_.gpu.freqs_hz.back(),
                                  platform_.cpu.freqs_hz.back(), full);
  EXPECT_GT(p, 15.0);  // Xavier MAXN under full load
  EXPECT_LT(p, 45.0);
}

TEST(PowerModelTx2, MaxPowerBelowAgx) {
  const Platform tx2 = make_tx2();
  const Platform agx = make_agx();
  const ActivityState full{1.0, 1.0, 1.0};
  const double p_tx2 = PowerModel(tx2).total_w(tx2.gpu.freqs_hz.back(),
                                               tx2.cpu.freqs_hz.back(), full);
  const double p_agx = PowerModel(agx).total_w(agx.gpu.freqs_hz.back(),
                                               agx.cpu.freqs_hz.back(), full);
  EXPECT_LT(p_tx2, p_agx);
  EXPECT_LT(p_tx2, 20.0);  // TX2 board envelope
}

// The level-indexed form every src/ caller uses is the frequency form at
// the ladder frequency, bit for bit, for every level pair on both boards and
// over an activity grid that includes the clamp edges (<0, 0, 1, >1).
TEST(PowerModelTables, TotalAtEqualsTotalBitwiseOnEveryLevelPair) {
  const double grid[] = {-0.5, 0.0, 0.05, 0.2, 0.37,
                         0.5,  0.7, 0.93, 1.0, 1.5};
  for (const Platform& platform : {make_tx2(), make_agx()}) {
    const PowerModel model(platform);
    for (std::size_t g = 0; g < platform.gpu_levels(); ++g) {
      const double gpu_f = platform.gpu_freq(g);
      EXPECT_EQ(model.gpu_voltage_at(g), model.gpu_voltage(gpu_f));
      for (std::size_t c = 0; c < platform.cpu_levels(); ++c) {
        const double cpu_f = platform.cpu_freq(c);
        for (const double a : grid) {
          EXPECT_EQ(model.cpu_power_w_at(c, a), model.cpu_power_w(cpu_f, a));
          for (const ActivityState act :
               {ActivityState{a, a, a}, ActivityState{a, 1.0 - a, 0.2},
                ActivityState{0.0, 0.0, a}}) {
            EXPECT_EQ(model.total_w_at(g, c, act),
                      model.total_w(gpu_f, cpu_f, act))
                << platform.name << " g=" << g << " c=" << c << " a=" << a;
          }
        }
      }
    }
  }
}

TEST(PowerModelTables, LevelOutsideTheLadderThrows) {
  const Platform tx2 = make_tx2();
  const PowerModel model(tx2);
  const ActivityState act{0.5, 0.5, 0.5};
  EXPECT_THROW(model.total_w_at(tx2.gpu_levels(), 0, act), std::out_of_range);
  EXPECT_THROW(model.total_w_at(0, tx2.cpu_levels(), act), std::out_of_range);
  EXPECT_THROW(model.cpu_power_w_at(tx2.cpu_levels(), 0.5), std::out_of_range);
}

}  // namespace
}  // namespace powerlens::hw
