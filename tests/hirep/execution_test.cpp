// core::Executor — the unified execution policy: named constructors,
// name/mode round-trips, and validate() as the single gate (nonsense
// rejection + environment-driven downgrade to serial).
#include <stdexcept>

#include <gtest/gtest.h>

#include "hirep/execution.hpp"

namespace hirep::core {
namespace {

TEST(Executor, NamedConstructorsSetTheObviousFields) {
  EXPECT_EQ(Executor::serial().mode, ExecutionMode::kSerial);
  EXPECT_FALSE(Executor::serial().concurrent());

  const Executor par = Executor::parallel(6);
  EXPECT_EQ(par.mode, ExecutionMode::kParallel);
  EXPECT_EQ(par.threads, 6u);
  EXPECT_TRUE(par.concurrent());

  // The default matches the old ExecutionPolicy default: parallel, 0 =
  // hardware threads.
  EXPECT_EQ(Executor{}.mode, ExecutionMode::kParallel);
  EXPECT_EQ(Executor{}.threads, 0u);
}

TEST(Executor, ModeNamesRoundTrip) {
  for (ExecutionMode mode : {ExecutionMode::kSerial, ExecutionMode::kParallel}) {
    const auto back = execution_mode_by_name(to_string(mode));
    ASSERT_TRUE(back.has_value()) << to_string(mode);
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(execution_mode_by_name("bogus").has_value());
  EXPECT_FALSE(execution_mode_by_name("").has_value());
  EXPECT_FALSE(execution_mode_by_name("Parallel").has_value());  // exact match
}

TEST(ExecutorValidate, PassesThroughUnderInstantDelivery) {
  const Executor::Environment instant;  // defaults: instant, no chaos
  Executor exec = Executor::parallel(2);
  exec.wave_window = 64;
  const Executor resolved = exec.validate(instant);
  EXPECT_EQ(resolved.mode, ExecutionMode::kParallel);
  EXPECT_EQ(resolved.threads, 2u);
  EXPECT_EQ(resolved.wave_window, 64u);
  EXPECT_EQ(Executor::serial().validate(instant).mode, ExecutionMode::kSerial);
}

TEST(ExecutorValidate, DowngradesConcurrentEnginesToSerial) {
  Executor::Environment lossy;
  lossy.instant_delivery = false;
  Executor::Environment chaotic;
  chaotic.chaos = true;

  for (const auto& env : {lossy, chaotic}) {
    const Executor resolved = Executor::parallel(4).validate(env);
    EXPECT_EQ(resolved.mode, ExecutionMode::kSerial);
    // Serial stays serial — nothing to downgrade.
    EXPECT_EQ(Executor::serial().validate(env).mode, ExecutionMode::kSerial);
  }
}

TEST(ExecutorValidate, RejectsWrappedNegatives) {
  const Executor::Environment env;
  EXPECT_THROW(Executor::parallel(5000).validate(env), std::invalid_argument);
  Executor window = Executor::parallel();
  window.wave_window = 2'000'000'000;
  EXPECT_THROW(window.validate(env), std::invalid_argument);

  // Boundary values stay legal.
  EXPECT_NO_THROW(Executor::parallel(4096).validate(env));
  window.wave_window = 1'000'000'000;
  EXPECT_NO_THROW(window.validate(env));
}

}  // namespace
}  // namespace hirep::core
