#include <gtest/gtest.h>

#include <cmath>

#include "core/distance.h"
#include "core/gmm.h"
#include "core/interestingness.h"
#include "core/rating_distribution.h"
#include "core/rating_map.h"
#include "core/seen_maps.h"
#include "tests/test_support.h"
#include "util/random.h"

namespace subdex {
namespace {

using testing_support::MakeRandomDb;
using testing_support::MakeTinyRestaurantDb;

RatingDistribution FromCounts(const std::vector<uint64_t>& counts) {
  RatingDistribution d(static_cast<int>(counts.size()));
  for (size_t i = 0; i < counts.size(); ++i) {
    d.AddCount(static_cast<int>(i + 1), counts[i]);
  }
  return d;
}

// -------------------------------------------------- RatingDistribution ---

TEST(RatingDistributionTest, CountsAndProbabilities) {
  RatingDistribution d = FromCounts({1, 2, 1, 5, 7});  // Figure 3's rm row 1
  EXPECT_EQ(d.total(), 16u);
  EXPECT_EQ(d.count(4), 5u);
  EXPECT_DOUBLE_EQ(d.Probability(5), 7.0 / 16.0);
  EXPECT_NEAR(d.Mean(), 3.9, 0.05);  // paper reports avg 3.9
  EXPECT_EQ(d.ToString(), "{1:1,2:2,3:1,4:5,5:7}");
}

TEST(RatingDistributionTest, EmptyDistribution) {
  RatingDistribution d(5);
  EXPECT_EQ(d.total(), 0u);
  EXPECT_EQ(d.Mean(), 0.0);
  EXPECT_EQ(d.StdDev(), 0.0);
  EXPECT_EQ(d.Probability(3), 0.0);
}

TEST(RatingDistributionTest, MergeAddsCounts) {
  RatingDistribution a = FromCounts({1, 0, 0, 0, 1});
  RatingDistribution b = FromCounts({0, 2, 0, 0, 0});
  a.Merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(2), 2u);
}

TEST(RatingDistributionTest, StdDevMatchesManual) {
  RatingDistribution d = FromCounts({2, 0, 0, 0, 2});  // scores 1,1,5,5
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.StdDev(), 2.0);
}

TEST(RatingDistributionTest, ModeIsMostFrequentScore) {
  EXPECT_EQ(RatingDistribution(5).Mode(), 0);  // empty
  EXPECT_EQ(FromCounts({1, 2, 1, 5, 7}).Mode(), 5);
  EXPECT_EQ(FromCounts({9, 2, 1, 0, 0}).Mode(), 1);
  // Ties resolve to the smaller score.
  EXPECT_EQ(FromCounts({3, 0, 3, 0, 0}).Mode(), 1);
}

TEST(RatingDistributionTest, TotalVariationBasics) {
  RatingDistribution a = FromCounts({10, 0, 0, 0, 0});
  RatingDistribution b = FromCounts({0, 0, 0, 0, 10});
  EXPECT_DOUBLE_EQ(a.TotalVariationDistance(b), 1.0);
  EXPECT_DOUBLE_EQ(a.TotalVariationDistance(a), 0.0);
}

TEST(RatingDistributionTest, EmdIsMaximalForOppositeExtremes) {
  RatingDistribution a = FromCounts({10, 0, 0, 0, 0});
  RatingDistribution b = FromCounts({0, 0, 0, 0, 10});
  EXPECT_DOUBLE_EQ(a.Emd(b), 1.0);
  EXPECT_DOUBLE_EQ(a.Emd(a), 0.0);
}

TEST(RatingDistributionTest, EmdSeesDistanceTvDoesNot) {
  // TV treats "mass at 2" and "mass at 5" as equally far from "mass at 1";
  // EMD knows 5 is farther.
  RatingDistribution at1 = FromCounts({10, 0, 0, 0, 0});
  RatingDistribution at2 = FromCounts({0, 10, 0, 0, 0});
  RatingDistribution at5 = FromCounts({0, 0, 0, 0, 10});
  EXPECT_DOUBLE_EQ(at1.TotalVariationDistance(at2),
                   at1.TotalVariationDistance(at5));
  EXPECT_LT(at1.Emd(at2), at1.Emd(at5));
}

TEST(RatingDistributionTest, KlDivergenceProperties) {
  RatingDistribution a = FromCounts({5, 5, 5, 5, 5});
  RatingDistribution b = FromCounts({20, 1, 1, 1, 2});
  EXPECT_NEAR(a.KlDivergence(a), 0.0, 1e-12);
  EXPECT_GT(a.KlDivergence(b), 0.0);
  EXPECT_GT(b.KlDivergence(a), 0.0);
}

// Property sweep: metric axioms of TV and EMD over random distributions.
class DistributionMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributionMetricTest, MetricAxiomsHold) {
  Rng rng(1000 + GetParam());
  auto random_dist = [&rng]() {
    std::vector<uint64_t> counts(5);
    for (auto& c : counts) c = rng.UniformU32(20);
    return FromCounts(counts);
  };
  RatingDistribution x = random_dist();
  RatingDistribution y = random_dist();
  RatingDistribution z = random_dist();
  for (auto metric : {&RatingDistribution::TotalVariationDistance,
                      &RatingDistribution::Emd}) {
    double xy = (x.*metric)(y);
    double yx = (y.*metric)(x);
    double xz = (x.*metric)(z);
    double zy = (z.*metric)(y);
    EXPECT_NEAR(xy, yx, 1e-12);                 // symmetry
    EXPECT_GE(xy, 0.0);                         // non-negativity
    EXPECT_LE(xy, 1.0);                         // normalization
    EXPECT_NEAR((x.*metric)(x), 0.0, 1e-12);    // identity
    EXPECT_LE(xy, xz + zy + 1e-9);              // triangle inequality
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDistributions, DistributionMetricTest,
                         ::testing::Range(0, 25));

// ----------------------------------------------------------- RatingMap ---

TEST(RatingMapTest, BuildPartitionsByCategoricalAttribute) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  size_t city_attr =
      static_cast<size_t>(db->items().schema().IndexOf("city"));
  RatingMap map = RatingMap::Build(all, {Side::kItem, city_attr, 0});
  EXPECT_EQ(map.group_size(), db->num_records());
  // Subgroup counts sum to group size (categorical grouping is a partition).
  uint64_t sum = 0;
  for (const Subgroup& sg : map.subgroups()) sum += sg.count();
  EXPECT_EQ(sum, map.group_size());
  // Subgroups sorted by descending average.
  for (size_t i = 1; i < map.subgroups().size(); ++i) {
    EXPECT_GE(map.subgroups()[i - 1].average(), map.subgroups()[i].average());
  }
}

TEST(RatingMapTest, MultiValuedGroupingCountsRecordPerValue) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  size_t cuisine =
      static_cast<size_t>(db->items().schema().IndexOf("cuisine"));
  RatingMap map = RatingMap::Build(all, {Side::kItem, cuisine, 0});
  uint64_t sum = 0;
  for (const Subgroup& sg : map.subgroups()) sum += sg.count();
  EXPECT_GT(sum, map.group_size());  // items carry 1-2 cuisines each
  EXPECT_EQ(map.overall().total(), db->num_records());
}

TEST(RatingMapTest, AllKeysSkipConstrainedAndNumericAttributes) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection sel;
  sel.reviewer_pred = Predicate(
      {{static_cast<size_t>(db->reviewers().schema().IndexOf("gender")),
        db->reviewers().LookupValue(0, "F")}});
  std::vector<RatingMapKey> keys = AllRatingMapKeys(*db, sel);
  // (3 reviewer attrs - 1 constrained + 3 item attrs) x 4 dimensions.
  EXPECT_EQ(keys.size(), (2 + 3) * 4u);
  for (const RatingMapKey& k : keys) {
    if (k.side == Side::kReviewer) {
      EXPECT_FALSE(sel.reviewer_pred.ConstrainsAttribute(k.attribute));
    }
  }
}

TEST(RatingMapTest, ToStringMentionsGroupingAndDimension) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap map = RatingMap::Build(all, {Side::kReviewer, 0, 1});
  std::string s = map.ToString(*db);
  EXPECT_NE(s.find("gender"), std::string::npos);
  EXPECT_NE(s.find("food"), std::string::npos);
}

// ----------------------------------------------------- Interestingness ---

TEST(InterestingnessTest, ConcisenessFavorsFewerSubgroups) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  UtilityConfig config;
  // gender: 2 subgroups; occupation: 6 subgroups.
  RatingMap by_gender = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  RatingMap by_occupation = RatingMap::Build(all, {Side::kReviewer, 2, 0});
  EXPECT_GT(RawConciseness(by_gender), RawConciseness(by_occupation));
  EXPECT_GT(Conciseness(by_gender, config),
            Conciseness(by_occupation, config));
}

TEST(InterestingnessTest, AgreementIsHighForUnanimousSubgroups) {
  auto db = MakeRandomDb(10, 5, 100, 1, 3);
  UtilityConfig config;
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap noisy = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  double noisy_agreement = Agreement(noisy, config);
  // Force every score to 4: zero dispersion everywhere.
  for (RecordId r = 0; r < db->num_records(); ++r) db->SetScore(0, r, 4);
  all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap map = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  EXPECT_GT(Agreement(map, config), 0.75);  // near 1, damped by the prior
  EXPECT_GT(Agreement(map, config), noisy_agreement);
  EXPECT_LT(SelfPeculiarity(map, config), 0.1);  // subgroups ~ overall
}

TEST(InterestingnessTest, AgreementPriorDampsTinyGroups) {
  // Two unanimous records are weak evidence; two hundred are strong.
  auto make_map = [](uint64_t n) {
    RatingDistribution sub(5);
    sub.AddCount(4, n);
    RatingDistribution overall = sub;
    return RatingMap({Side::kReviewer, 0, 0}, {{0, sub}}, overall);
  };
  UtilityConfig config;
  EXPECT_LT(Agreement(make_map(2), config), 0.6);
  EXPECT_GT(Agreement(make_map(200), config), 0.8);
}

TEST(InterestingnessTest, SmoothedTvDampsLowCounts) {
  RatingDistribution tiny_at5(5);
  tiny_at5.AddCount(5, 2);
  RatingDistribution big_at5(5);
  big_at5.AddCount(5, 500);
  RatingDistribution big_at1(5);
  big_at1.AddCount(1, 500);
  // Both are "all fives", but 2 records are weak evidence of deviation.
  EXPECT_LT(SmoothedTotalVariation(tiny_at5, big_at1, 4.0),
            SmoothedTotalVariation(big_at5, big_at1, 4.0));
  EXPECT_GT(SmoothedTotalVariation(big_at5, big_at1, 4.0), 0.9);
  EXPECT_DOUBLE_EQ(SmoothedTotalVariation(big_at5, big_at5, 4.0), 0.0);
}

TEST(InterestingnessTest, SelfPeculiarityDetectsDeviantSubgroup) {
  auto db = MakeRandomDb(40, 10, 600, 1, 5);
  // Make one gender's ratings all 1 while others stay random.
  ValueCode f = db->reviewers().LookupValue(0, "F");
  for (RecordId r = 0; r < db->num_records(); ++r) {
    if (db->reviewers().CodeAt(0, db->reviewer_of(r)) == f) {
      db->SetScore(0, r, 1);
    }
  }
  UtilityConfig config;
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap by_gender = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  RatingMap by_city = RatingMap::Build(all, {Side::kItem, 0, 0});
  EXPECT_GT(SelfPeculiarity(by_gender, config),
            SelfPeculiarity(by_city, config));
}

TEST(InterestingnessTest, GlobalPeculiarityZeroWithEmptyHistory) {
  auto db = MakeTinyRestaurantDb();
  UtilityConfig config;
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap map = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  EXPECT_DOUBLE_EQ(GlobalPeculiarity(map, {}, config), 0.0);
  // Against itself: zero; against a floored distribution: positive.
  EXPECT_DOUBLE_EQ(GlobalPeculiarity(map, {map.overall()}, config), 0.0);
  EXPECT_GT(GlobalPeculiarity(map, {FromCounts({50, 0, 0, 0, 0})}, config),
            0.0);
}

TEST(InterestingnessTest, ScoresAreNormalized) {
  auto db = MakeRandomDb(30, 10, 500, 2, 11);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  UtilityConfig config;
  for (const RatingMapKey& key : AllRatingMapKeys(*db, GroupSelection{})) {
    RatingMap map = RatingMap::Build(all, key);
    InterestingnessScores s =
        ComputeScores(map, {FromCounts({9, 1, 1, 1, 1})}, config);
    for (size_t c = 0; c < InterestingnessScores::kNumCriteria; ++c) {
      EXPECT_GE(s.Get(c), 0.0);
      EXPECT_LE(s.Get(c), 1.0);
    }
    double u = Utility(s, config);
    EXPECT_GE(u, s.Get(0));
    EXPECT_GE(u, s.Get(3));
  }
}

TEST(InterestingnessTest, KlPeculiarityAlternative) {
  auto db = MakeRandomDb(40, 10, 600, 1, 15);
  // Polarize one gender so its subgroup distribution deviates strongly.
  ValueCode f = db->reviewers().LookupValue(0, "F");
  for (RecordId r = 0; r < db->num_records(); ++r) {
    if (db->reviewers().CodeAt(0, db->reviewer_of(r)) == f) {
      db->SetScore(0, r, 5);
    }
  }
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap by_gender = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  RatingMap by_city = RatingMap::Build(all, {Side::kItem, 0, 0});

  UtilityConfig kl;
  kl.peculiarity_measure = PeculiarityMeasure::kKlDivergence;
  // Bounded, and ranks the deviant grouping above the bland one, like TV.
  double deviant = SelfPeculiarity(by_gender, kl);
  double bland = SelfPeculiarity(by_city, kl);
  EXPECT_GE(deviant, 0.0);
  EXPECT_LE(deviant, 1.0);
  EXPECT_GT(deviant, bland);

  UtilityConfig tv;  // default measure agrees on the ordering
  EXPECT_GT(SelfPeculiarity(by_gender, tv), SelfPeculiarity(by_city, tv));
}

TEST(InterestingnessTest, AggregationVariants) {
  InterestingnessScores s;
  s.conciseness = 0.2;
  s.agreement = 0.6;
  s.self_peculiarity = 0.4;
  s.global_peculiarity = 0.8;
  UtilityConfig config;
  config.aggregation = UtilityAggregation::kMax;
  EXPECT_DOUBLE_EQ(Utility(s, config), 0.8);
  config.aggregation = UtilityAggregation::kAverage;
  EXPECT_DOUBLE_EQ(Utility(s, config), 0.5);
  config.aggregation = UtilityAggregation::kSingleCriterion;
  config.single = UtilityCriterion::kAgreement;
  EXPECT_DOUBLE_EQ(Utility(s, config), 0.6);
}

// ------------------------------------------------------------ SeenMaps ---

TEST(SeenMapsTest, GetWeightsMatchesAlgorithm2) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());
  EXPECT_EQ(seen.GetWeights(), std::vector<double>(4, 0.0));
  EXPECT_DOUBLE_EQ(seen.DimensionWeight(0), 1.0);

  // Record maps on dimensions 0,0,0,1 -> weights {0.75, 0.25, 0, 0}.
  for (size_t d : {0u, 0u, 0u, 1u}) {
    seen.Record(RatingMap::Build(all, {Side::kReviewer, 0, d}));
  }
  std::vector<double> w = seen.GetWeights();
  EXPECT_DOUBLE_EQ(w[0], 0.75);
  EXPECT_DOUBLE_EQ(w[1], 0.25);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
  // DW multiplier is 1 - w (Eq. 1).
  EXPECT_DOUBLE_EQ(seen.DimensionWeight(0), 0.25);
  EXPECT_DOUBLE_EQ(seen.DimensionWeight(2), 1.0);
  EXPECT_EQ(seen.total(), 4u);
  EXPECT_EQ(seen.seen_distributions().size(), 4u);
}

TEST(SeenMapsTest, DwUtilityReproducesPaperExample) {
  // Paper, Section 3.2.3: m=10 maps seen, m_r2=3, m_r4=1;
  // u(rm_r2)=0.6 -> 0.42; u(rm_r4)=0.8 -> 0.72.
  SeenMapsTracker seen(4);
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  // Dimensions here are 0-indexed: r1->0, r2->1, r3->2, r4->3.
  for (size_t d : {0u, 0u, 0u, 1u, 1u, 1u, 2u, 2u, 2u, 3u}) {
    seen.Record(RatingMap::Build(all, {Side::kReviewer, 0, d}));
  }
  EXPECT_NEAR(seen.DimensionWeightedUtility({Side::kReviewer, 0, 1}, 0.6),
              0.42, 1e-12);
  EXPECT_NEAR(seen.DimensionWeightedUtility({Side::kReviewer, 0, 3}, 0.8),
              0.72, 1e-12);
}

// ------------------------------------------------------------ Distance ---

TEST(DistanceTest, Emd1DBasics) {
  EXPECT_DOUBLE_EQ(Emd1D({1, 0, 0}, {0, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Emd1D({1, 0, 0}, {0, 1, 0}), 0.5);
  EXPECT_DOUBLE_EQ(Emd1D({2, 2}, {1, 1}), 0.0);  // same after normalization
}

TEST(DistanceTest, SignatureDistinguishesGroupings) {
  auto db = MakeRandomDb(60, 20, 800, 1, 13);
  // Polarize by gender: F low, M high.
  ValueCode f = db->reviewers().LookupValue(0, "F");
  for (RecordId r = 0; r < db->num_records(); ++r) {
    bool is_f = db->reviewers().CodeAt(0, db->reviewer_of(r)) == f;
    db->SetScore(0, r, is_f ? 1 : 5);
  }
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  RatingMap by_gender = RatingMap::Build(all, {Side::kReviewer, 0, 0});
  RatingMap by_age = RatingMap::Build(all, {Side::kReviewer, 1, 0});
  // Same records, same dimension: overall EMD cannot tell them apart...
  EXPECT_DOUBLE_EQ(
      RatingMapDistance(by_gender, by_age, MapDistanceKind::kOverallEmd), 0.0);
  // ...but the subgroup-signature EMD can.
  EXPECT_GT(
      RatingMapDistance(by_gender, by_age, MapDistanceKind::kSignatureEmd),
      0.1);
}

TEST(DistanceTest, SetDiversityIsMinPairwise) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  std::vector<RatingMap> maps;
  for (size_t a = 0; a < 3; ++a) {
    maps.push_back(RatingMap::Build(all, {Side::kReviewer, a, 0}));
  }
  double div = SetDiversity(maps);
  for (size_t i = 0; i < maps.size(); ++i) {
    for (size_t j = i + 1; j < maps.size(); ++j) {
      EXPECT_LE(div, RatingMapDistance(maps[i], maps[j]) + 1e-12);
    }
  }
  EXPECT_EQ(SetDiversity({maps[0]}), 0.0);
}

// ----------------------------------------------------------------- GMM ---

TEST(GmmTest, SelectsRequestedCount) {
  auto dist = [](size_t a, size_t b) {
    return std::fabs(static_cast<double>(a) - static_cast<double>(b));
  };
  std::vector<size_t> chosen = GmmSelect(10, 3, dist, 0);
  EXPECT_EQ(chosen.size(), 3u);
  std::set<size_t> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(GmmTest, OnALinePicksExtremes) {
  auto dist = [](size_t a, size_t b) {
    return std::fabs(static_cast<double>(a) - static_cast<double>(b));
  };
  std::vector<size_t> chosen = GmmSelect(11, 2, dist, 0);
  // Starting at 0, the farthest point is 10.
  EXPECT_EQ(chosen[0], 0u);
  EXPECT_EQ(chosen[1], 10u);
}

TEST(GmmTest, KAtLeastNReturnsAll) {
  auto dist = [](size_t, size_t) { return 1.0; };
  EXPECT_EQ(GmmSelect(4, 10, dist).size(), 4u);
  EXPECT_EQ(GmmSelect(0, 3, dist).size(), 0u);
  EXPECT_EQ(GmmSelect(5, 0, dist).size(), 0u);
}

// Property sweep: GMM achieves at least half the optimal max-min diversity
// (Gonzalez's 2-approximation) on random metric instances.
class GmmApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(GmmApproximationTest, WithinFactorTwoOfBruteForce) {
  Rng rng(5000 + GetParam());
  const size_t n = 9;
  const size_t k = 3 + GetParam() % 3;  // 3..5
  // Random points on a line => a true metric.
  std::vector<double> pos(n);
  for (double& p : pos) p = rng.UniformDouble() * 100.0;
  auto dist = [&pos](size_t a, size_t b) { return std::fabs(pos[a] - pos[b]); };

  std::vector<size_t> greedy = GmmSelect(n, k, dist, 0);
  std::vector<size_t> optimal = BruteForceMaxMinSelect(n, k, dist);
  double greedy_score = MinPairwiseDistance(greedy, dist);
  double optimal_score = MinPairwiseDistance(optimal, dist);
  EXPECT_GE(greedy_score * 2.0 + 1e-9, optimal_score);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GmmApproximationTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace subdex
