#ifndef SUBDEX_TESTS_TEST_SUPPORT_H_
#define SUBDEX_TESTS_TEST_SUPPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "subjective/subjective_db.h"

namespace subdex {
namespace testing_support {

/// A tiny hand-built restaurant database in the spirit of Figure 2:
/// reviewers (gender, age_group, occupation), restaurants (cuisine multi,
/// city, neighborhood), 4 rating dimensions (overall/food/service/ambiance)
/// on the 1..5 scale. Deterministic content; finalized.
std::unique_ptr<SubjectiveDatabase> MakeTinyRestaurantDb();

/// A configurable database: `num_reviewers` x `num_items`, reviewer
/// attributes {gender(2), age_group(3)}, item attributes {city(4),
/// cuisine multi(3)}, `num_dimensions` dimensions, one rating per
/// (reviewer, item) pair sampled by the seed. Finalized.
std::unique_ptr<SubjectiveDatabase> MakeRandomDb(size_t num_reviewers,
                                                 size_t num_items,
                                                 size_t num_ratings,
                                                 size_t num_dimensions,
                                                 uint64_t seed);

/// Like MakeRandomDb, but with missing values on both sides: reviewer
/// attributes {gender(2, null in about 1/4 of rows), age_group(3),
/// languages multi(4, empty in about 1/3 of rows), member("yes" in 7 of 8
/// rows, else "no")}, item attributes {city(4, null in about 1/5 of rows),
/// cuisine multi(3, empty in about 1/4 of rows), price numeric, open("yes"
/// in 7 of 8 rows, else "no")}. Grouping by any of the four nullable
/// attributes yields a kNullCode subgroup. The ratings cover the first
/// `num_reviewers` x `num_items` rows; one further reviewer (languages
/// {"la"}) and one further item (cuisine {"fondue"}) hold no ratings and
/// are the only rows with those values. Finalized.
std::unique_ptr<SubjectiveDatabase> MakeDbWithNulls(size_t num_reviewers,
                                                    size_t num_items,
                                                    size_t num_ratings,
                                                    size_t num_dimensions,
                                                    uint64_t seed);

}  // namespace testing_support
}  // namespace subdex

#endif  // SUBDEX_TESTS_TEST_SUPPORT_H_
