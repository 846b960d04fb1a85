#include "tests/test_support.h"

#include "util/check.h"
#include "util/random.h"

namespace subdex {
namespace testing_support {

namespace {

Schema ReviewerSchema() {
  return Schema({{"gender", AttributeType::kCategorical},
                 {"age_group", AttributeType::kCategorical},
                 {"occupation", AttributeType::kCategorical}});
}

Schema ItemSchema() {
  return Schema({{"cuisine", AttributeType::kMultiCategorical},
                 {"city", AttributeType::kCategorical},
                 {"neighborhood", AttributeType::kCategorical}});
}

void MustAppend(Table* t, const std::vector<Value>& cells) {
  Status st = t->AppendRow(cells);
  SUBDEX_CHECK_OK(st);
}

}  // namespace

std::unique_ptr<SubjectiveDatabase> MakeTinyRestaurantDb() {
  auto db = std::make_unique<SubjectiveDatabase>(
      ReviewerSchema(), ItemSchema(),
      std::vector<std::string>{"overall", "food", "service", "ambiance"}, 5);

  // Reviewers: 6, mixing genders/ages/occupations.
  MustAppend(&db->reviewers(), {std::string("F"), std::string("young"),
                                std::string("student")});
  MustAppend(&db->reviewers(), {std::string("M"), std::string("young"),
                                std::string("programmer")});
  MustAppend(&db->reviewers(), {std::string("F"), std::string("adult"),
                                std::string("lawyer")});
  MustAppend(&db->reviewers(), {std::string("M"), std::string("adult"),
                                std::string("teacher")});
  MustAppend(&db->reviewers(), {std::string("F"), std::string("young"),
                                std::string("programmer")});
  MustAppend(&db->reviewers(), {std::string("M"), std::string("senior"),
                                std::string("retired")});

  // Restaurants: 4.
  MustAppend(&db->items(),
             {std::vector<std::string>{"burgers", "barbeque"},
              std::string("charlotte"), std::string("downtown")});
  MustAppend(&db->items(),
             {std::vector<std::string>{"japanese", "sushi"},
              std::string("austin"), std::string("midtown")});
  MustAppend(&db->items(), {std::vector<std::string>{"mexican"},
                            std::string("nyc"), std::string("soho")});
  MustAppend(&db->items(),
             {std::vector<std::string>{"pizza", "italian"},
              std::string("nyc"), std::string("williamsburg")});

  // Ratings: (reviewer, item, overall, food, service, ambiance).
  const int ratings[][6] = {
      {0, 3, 4, 3, 5, 4}, {0, 2, 5, 5, 5, 4}, {1, 0, 4, 4, 3, 5},
      {1, 1, 3, 4, 3, 3}, {2, 3, 5, 5, 5, 4}, {2, 1, 2, 3, 2, 2},
      {3, 0, 3, 3, 4, 3}, {3, 2, 4, 4, 4, 5}, {4, 3, 1, 1, 2, 1},
      {4, 1, 5, 5, 4, 5}, {5, 0, 2, 2, 1, 3}, {5, 2, 3, 3, 3, 3},
  };
  for (const auto& r : ratings) {
    Status st = db->AddRating(
        static_cast<RowId>(r[0]), static_cast<RowId>(r[1]),
        {static_cast<double>(r[2]), static_cast<double>(r[3]),
         static_cast<double>(r[4]), static_cast<double>(r[5])});
    SUBDEX_CHECK_OK(st);
  }
  db->FinalizeIndexes();
  return db;
}

std::unique_ptr<SubjectiveDatabase> MakeRandomDb(size_t num_reviewers,
                                                 size_t num_items,
                                                 size_t num_ratings,
                                                 size_t num_dimensions,
                                                 uint64_t seed) {
  Schema reviewer_schema({{"gender", AttributeType::kCategorical},
                          {"age_group", AttributeType::kCategorical}});
  Schema item_schema({{"city", AttributeType::kCategorical},
                      {"cuisine", AttributeType::kMultiCategorical}});
  std::vector<std::string> dims;
  for (size_t d = 0; d < num_dimensions; ++d) {
    dims.push_back("dim" + std::to_string(d));
  }
  auto db = std::make_unique<SubjectiveDatabase>(reviewer_schema, item_schema,
                                                 dims, 5);
  Rng rng(seed);
  const char* genders[] = {"F", "M"};
  const char* ages[] = {"young", "adult", "senior"};
  const char* cities[] = {"nyc", "austin", "detroit", "charlotte"};
  const char* cuisines[] = {"pizza", "sushi", "tacos"};
  for (size_t u = 0; u < num_reviewers; ++u) {
    MustAppend(&db->reviewers(),
               {std::string(genders[rng.UniformU32(2)]),
                std::string(ages[rng.UniformU32(3)])});
  }
  for (size_t i = 0; i < num_items; ++i) {
    size_t n = 1 + rng.UniformU32(2);
    std::vector<std::string> cs;
    for (size_t j = 0; j < n; ++j) cs.push_back(cuisines[rng.UniformU32(3)]);
    MustAppend(&db->items(),
               {std::string(cities[rng.UniformU32(4)]), cs});
  }
  for (size_t r = 0; r < num_ratings; ++r) {
    std::vector<double> scores;
    for (size_t d = 0; d < num_dimensions; ++d) {
      scores.push_back(1 + rng.UniformU32(5));
    }
    Status st = db->AddRating(
        rng.UniformU32(static_cast<uint32_t>(num_reviewers)),
        rng.UniformU32(static_cast<uint32_t>(num_items)), scores);
    SUBDEX_CHECK_OK(st);
  }
  db->FinalizeIndexes();
  return db;
}

std::unique_ptr<SubjectiveDatabase> MakeDbWithNulls(size_t num_reviewers,
                                                    size_t num_items,
                                                    size_t num_ratings,
                                                    size_t num_dimensions,
                                                    uint64_t seed) {
  Schema reviewer_schema({{"gender", AttributeType::kCategorical},
                          {"age_group", AttributeType::kCategorical},
                          {"languages", AttributeType::kMultiCategorical},
                          {"member", AttributeType::kCategorical}});
  Schema item_schema({{"city", AttributeType::kCategorical},
                      {"cuisine", AttributeType::kMultiCategorical},
                      {"price", AttributeType::kNumeric},
                      {"open", AttributeType::kCategorical}});
  std::vector<std::string> dims;
  for (size_t d = 0; d < num_dimensions; ++d) {
    dims.push_back("dim" + std::to_string(d));
  }
  auto db = std::make_unique<SubjectiveDatabase>(reviewer_schema, item_schema,
                                                 dims, 5);
  Rng rng(seed);
  const char* genders[] = {"F", "M"};
  const char* ages[] = {"young", "adult", "senior"};
  const char* languages[] = {"en", "es", "fr", "de"};
  const char* cities[] = {"nyc", "austin", "detroit", "charlotte"};
  const char* cuisines[] = {"pizza", "sushi", "tacos"};
  // Up to `max` values drawn from `pool`; empty in 1 of `empty_one_in`.
  auto multi = [&](const char* const* pool, uint32_t size, uint32_t max,
                   uint32_t empty_one_in) -> Value {
    std::vector<std::string> values;
    if (rng.UniformU32(empty_one_in) != 0) {
      uint32_t n = 1 + rng.UniformU32(max);
      for (uint32_t j = 0; j < n; ++j) {
        values.push_back(pool[rng.UniformU32(size)]);
      }
    }
    return values;
  };
  for (size_t u = 0; u < num_reviewers; ++u) {
    Value gender = std::monostate{};
    if (rng.UniformU32(4) != 0) gender = std::string(genders[rng.UniformU32(2)]);
    MustAppend(&db->reviewers(), {gender, std::string(ages[rng.UniformU32(3)]),
                                  multi(languages, 4, 2, 3),
                                  std::string(u % 8 == 7 ? "no" : "yes")});
  }
  for (size_t i = 0; i < num_items; ++i) {
    Value city = std::monostate{};
    if (rng.UniformU32(5) != 0) city = std::string(cities[rng.UniformU32(4)]);
    MustAppend(&db->items(), {city, multi(cuisines, 3, 2, 4),
                              static_cast<double>(rng.UniformU32(50)),
                              std::string(i % 8 == 7 ? "no" : "yes")});
  }
  for (size_t r = 0; r < num_ratings; ++r) {
    std::vector<double> scores;
    for (size_t d = 0; d < num_dimensions; ++d) {
      scores.push_back(1 + rng.UniformU32(5));
    }
    Status st = db->AddRating(
        rng.UniformU32(static_cast<uint32_t>(num_reviewers)),
        rng.UniformU32(static_cast<uint32_t>(num_items)), scores);
    SUBDEX_CHECK_OK(st);
  }
  // One reviewer and one item that no rating references, each holding a
  // value no rated row holds.
  MustAppend(&db->reviewers(), {std::monostate{}, std::string("senior"),
                                std::vector<std::string>{"la"},
                                std::string("yes")});
  MustAppend(&db->items(), {std::monostate{},
                            std::vector<std::string>{"fondue"}, 0.0,
                            std::string("yes")});
  db->FinalizeIndexes();
  return db;
}

}  // namespace testing_support
}  // namespace subdex
