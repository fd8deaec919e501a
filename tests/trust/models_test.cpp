#include "trust/trust_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "util/rng.hpp"

namespace hirep::trust {
namespace {

TEST(Models, FactoryByName) {
  EXPECT_EQ(average_model_factory()()->name(), "average");
  EXPECT_EQ(ewma_model_factory()()->name(), "ewma");
  EXPECT_EQ(beta_model_factory()()->name(), "beta");
  EXPECT_EQ(model_factory_by_name("average")()->name(), "average");
  EXPECT_EQ(model_factory_by_name("ewma")()->name(), "ewma");
  EXPECT_EQ(model_factory_by_name("beta")()->name(), "beta");
  EXPECT_THROW(model_factory_by_name("nope"), std::invalid_argument);
}

TEST(Models, NeutralPriorBeforeObservations) {
  for (const auto& name : {"average", "ewma", "beta"}) {
    const auto m = model_factory_by_name(name)();
    EXPECT_DOUBLE_EQ(m->value(), 0.5) << name;
    EXPECT_EQ(m->observations(), 0u);
  }
}

TEST(AverageModel, ComputesMean) {
  auto m = average_model_factory()();
  m->record(1.0);
  m->record(0.0);
  m->record(1.0);
  m->record(1.0);
  EXPECT_DOUBLE_EQ(m->value(), 0.75);
  EXPECT_EQ(m->observations(), 4u);
}

TEST(EwmaModel, FirstObservationReplacesPrior) {
  auto m = ewma_model_factory(0.3)();
  m->record(1.0);
  EXPECT_DOUBLE_EQ(m->value(), 1.0);
}

TEST(EwmaModel, RecurrenceMatchesPaperFormula) {
  auto m = ewma_model_factory(0.3)();
  m->record(1.0);
  m->record(0.0);  // 0.3*0 + 0.7*1 = 0.7
  EXPECT_DOUBLE_EQ(m->value(), 0.7);
  m->record(0.0);  // 0.3*0 + 0.7*0.7 = 0.49
  EXPECT_DOUBLE_EQ(m->value(), 0.49);
}

TEST(EwmaModel, InvalidAlphaRejected) {
  EXPECT_THROW(ewma_model_factory(0.0)(), std::invalid_argument);
  EXPECT_THROW(ewma_model_factory(1.0)(), std::invalid_argument);
  EXPECT_THROW(ewma_model_factory(-1.0)(), std::invalid_argument);
}

TEST(BetaModel, PosteriorMean) {
  auto m = beta_model_factory(1.0, 1.0)();
  m->record(1.0);  // Beta(2,1): mean 2/3
  EXPECT_NEAR(m->value(), 2.0 / 3.0, 1e-12);
  m->record(1.0);  // Beta(3,1): mean 3/4
  EXPECT_NEAR(m->value(), 0.75, 1e-12);
}

TEST(BetaModel, FractionalOutcomes) {
  auto m = beta_model_factory(1.0, 1.0)();
  m->record(0.5);  // Beta(1.5, 1.5): mean 0.5
  EXPECT_DOUBLE_EQ(m->value(), 0.5);
}

TEST(BetaModel, InvalidPriorsRejected) {
  EXPECT_THROW(beta_model_factory(0.0, 1.0)(), std::invalid_argument);
  EXPECT_THROW(beta_model_factory(1.0, -2.0)(), std::invalid_argument);
}

TEST(Models, OutOfRangeOutcomesClamped) {
  for (const auto& name : {"average", "ewma", "beta"}) {
    auto m = model_factory_by_name(name)();
    m->record(5.0);
    EXPECT_LE(m->value(), 1.0) << name;
    m->record(-5.0);
    EXPECT_GE(m->value(), 0.0) << name;
  }
}

TEST(Models, CloneIsIndependentCopy) {
  for (const auto& name : {"average", "ewma", "beta"}) {
    auto m = model_factory_by_name(name)();
    m->record(1.0);
    auto c = m->clone();
    c->record(0.0);
    EXPECT_NE(m->value(), c->value()) << name;
    EXPECT_EQ(m->observations() + 1, c->observations());
  }
}

// Property: all models converge toward the true rate of a Bernoulli stream.
// The model name is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would make the discovered test names
// change from run to run.
class ModelConvergence
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ModelConvergence, TracksBernoulliRate) {
  const auto [name, rate] = GetParam();
  util::Rng rng(std::hash<std::string>{}(name) ^
                static_cast<std::uint64_t>(rate * 1000));
  auto m = model_factory_by_name(name)();
  for (int i = 0; i < 5000; ++i) m->record(rng.chance(rate) ? 1.0 : 0.0);
  // EWMA keeps variance ~alpha/(2-alpha); allow a generous band.
  EXPECT_NEAR(m->value(), rate, 0.25) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelConvergence,
    ::testing::Combine(::testing::Values("average", "ewma", "beta"),
                       ::testing::Values(0.1, 0.5, 0.9)));

TEST(Models, ValuesStayInUnitInterval) {
  util::Rng rng(9);
  for (const auto& name : {"average", "ewma", "beta"}) {
    auto m = model_factory_by_name(name)();
    for (int i = 0; i < 500; ++i) {
      m->record(rng.uniform(-0.2, 1.2));
      EXPECT_GE(m->value(), 0.0) << name;
      EXPECT_LE(m->value(), 1.0) << name;
    }
  }
}

}  // namespace
}  // namespace hirep::trust
