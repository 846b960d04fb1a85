#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "subjective/operation.h"
#include "subjective/rating_group.h"
#include "subjective/subjective_db.h"
#include "tests/test_support.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace subdex {
namespace {

using testing_support::MakeDbWithNulls;
using testing_support::MakeRandomDb;
using testing_support::MakeTinyRestaurantDb;

// Convenience: builds a predicate over named attribute/value pairs.
Predicate Pred(const Table& table,
               const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<AttributeValue> conjuncts;
  for (const auto& [attr, value] : pairs) {
    int idx = table.schema().IndexOf(attr);
    EXPECT_GE(idx, 0);
    ValueCode code = table.LookupValue(static_cast<size_t>(idx), value);
    EXPECT_NE(code, kNullCode) << attr << "=" << value;
    conjuncts.push_back({static_cast<size_t>(idx), code});
  }
  return Predicate(conjuncts);
}

// ------------------------------------------------------ SubjectiveDb ----

TEST(SubjectiveDbTest, BasicShape) {
  auto db = MakeTinyRestaurantDb();
  EXPECT_EQ(db->num_reviewers(), 6u);
  EXPECT_EQ(db->num_items(), 4u);
  EXPECT_EQ(db->num_records(), 12u);
  EXPECT_EQ(db->num_dimensions(), 4u);
  EXPECT_EQ(db->scale(), 5);
  EXPECT_EQ(db->dimension_name(1), "food");
  EXPECT_EQ(db->DimensionIndexOf("service"), 2);
  EXPECT_EQ(db->DimensionIndexOf("nope"), -1);
}

TEST(SubjectiveDbTest, RatingValidation) {
  auto db = std::make_unique<SubjectiveDatabase>(
      Schema({{"a", AttributeType::kCategorical}}),
      Schema({{"b", AttributeType::kCategorical}}),
      std::vector<std::string>{"overall"}, 5);
  ASSERT_TRUE(db->reviewers().AppendRow({std::string("x")}).ok());
  ASSERT_TRUE(db->items().AppendRow({std::string("y")}).ok());
  EXPECT_FALSE(db->AddRating(5, 0, {3.0}).ok());   // bad reviewer
  EXPECT_FALSE(db->AddRating(0, 5, {3.0}).ok());   // bad item
  EXPECT_FALSE(db->AddRating(0, 0, {3.0, 4.0}).ok());  // arity
  EXPECT_TRUE(db->AddRating(0, 0, {7.5}).ok());    // clamped
  EXPECT_EQ(db->score(0, 0), 5);
  EXPECT_TRUE(db->AddRating(0, 0, {-2.0}).ok());
  EXPECT_EQ(db->score(0, 1), 1);
  db->FinalizeIndexes();
  EXPECT_FALSE(db->AddRating(0, 0, {3.0}).ok());   // after finalize
}

TEST(SubjectiveDbTest, ReviewerAndItemIndexes) {
  auto db = MakeTinyRestaurantDb();
  size_t total = 0;
  for (RowId u = 0; u < db->num_reviewers(); ++u) {
    for (RecordId r : db->RecordsOfReviewer(u)) {
      EXPECT_EQ(db->reviewer_of(r), u);
      ++total;
    }
  }
  EXPECT_EQ(total, db->num_records());
  total = 0;
  for (RowId i = 0; i < db->num_items(); ++i) {
    for (RecordId r : db->RecordsOfItem(i)) {
      EXPECT_EQ(db->item_of(r), i);
      ++total;
    }
  }
  EXPECT_EQ(total, db->num_records());
}

TEST(SubjectiveDbTest, MatchRowsAgreesWithPredicateSelect) {
  auto db = MakeRandomDb(50, 20, 300, 2, 99);
  for (Side side : {Side::kReviewer, Side::kItem}) {
    const Table& table = db->table(side);
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      for (size_t v = 0; v < table.DistinctValueCount(a); ++v) {
        Predicate p({{a, static_cast<ValueCode>(v)}});
        std::vector<RowId> direct = p.Select(table);
        std::vector<uint32_t> via_bitmap =
            db->MatchRows(side, p).ToIndices();
        EXPECT_EQ(direct, std::vector<RowId>(via_bitmap.begin(),
                                             via_bitmap.end()));
      }
    }
  }
}

TEST(SubjectiveDbTest, MatchRecordsIsConjunction) {
  auto db = MakeTinyRestaurantDb();
  Predicate young = Pred(db->reviewers(), {{"age_group", "young"}});
  Predicate nyc = Pred(db->items(), {{"city", "nyc"}});
  std::vector<RecordId> records = db->MatchRecords(young, nyc);
  for (RecordId r : records) {
    EXPECT_TRUE(young.Matches(db->reviewers(), db->reviewer_of(r)));
    EXPECT_TRUE(nyc.Matches(db->items(), db->item_of(r)));
  }
  // Brute-force count.
  size_t expected = 0;
  for (RecordId r = 0; r < db->num_records(); ++r) {
    if (young.Matches(db->reviewers(), db->reviewer_of(r)) &&
        nyc.Matches(db->items(), db->item_of(r))) {
      ++expected;
    }
  }
  EXPECT_EQ(records.size(), expected);
}

// The records of a selection by definition: each record whose reviewer
// holds every reviewer conjunct and whose item holds every item conjunct,
// tested one record at a time.
std::vector<RecordId> NaiveMatch(const SubjectiveDatabase& db,
                                 const Predicate& reviewer_pred,
                                 const Predicate& item_pred) {
  auto holds = [](const Table& table, const Predicate& pred, RowId row) {
    for (const AttributeValue& av : pred.conjuncts()) {
      if (!table.HasValue(av.attribute, row, av.code)) return false;
    }
    return true;
  };
  std::vector<RecordId> out;
  for (RecordId r = 0; r < db.num_records(); ++r) {
    if (holds(db.reviewers(), reviewer_pred, db.reviewer_of(r)) &&
        holds(db.items(), item_pred, db.item_of(r))) {
      out.push_back(r);
    }
  }
  return out;
}

// Every (attribute, value) conjunct over `table`'s non-numeric attributes.
std::vector<AttributeValue> AllConjuncts(const Table& table) {
  std::vector<AttributeValue> out;
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    if (table.schema().attribute(a).type == AttributeType::kNumeric) continue;
    for (size_t v = 0; v < table.DistinctValueCount(a); ++v) {
      out.push_back({a, static_cast<ValueCode>(v)});
    }
  }
  return out;
}

// MatchRecords returns the naive selection, strictly ascending, in a
// vector holding no spare capacity (the group cache keeps hundreds).
void ExpectMatchesNaive(const SubjectiveDatabase& db,
                        const Predicate& reviewer_pred,
                        const Predicate& item_pred) {
  std::vector<RecordId> got = db.MatchRecords(reviewer_pred, item_pred);
  EXPECT_EQ(got, NaiveMatch(db, reviewer_pred, item_pred));
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                               std::greater_equal<RecordId>()),
            got.end());
  EXPECT_EQ(got.capacity(), got.size());
}

TEST(SubjectiveDbTest, MatchRecordsEqualsNaiveSelection) {
  auto db = MakeDbWithNulls(40, 16, 700, 2, 71);
  const Table& reviewers = db->reviewers();
  const Table& items = db->items();
  // Rows without ratings on both sides.
  ASSERT_TRUE(db->RecordsOfReviewer(db->num_reviewers() - 1).empty());
  ASSERT_TRUE(db->RecordsOfItem(db->num_items() - 1).empty());
  const Predicate none;
  ExpectMatchesNaive(*db, none, none);
  EXPECT_EQ(db->MatchRecords(none, none).size(), db->num_records());

  const std::vector<AttributeValue> reviewer_conjuncts =
      AllConjuncts(reviewers);
  const std::vector<AttributeValue> item_conjuncts = AllConjuncts(items);
  for (const AttributeValue& av : reviewer_conjuncts) {
    SCOPED_TRACE(testing::Message() << "reviewer " << av.attribute << "="
                                    << av.code);
    ExpectMatchesNaive(*db, Predicate({av}), none);
  }
  for (const AttributeValue& av : item_conjuncts) {
    SCOPED_TRACE(testing::Message() << "item " << av.attribute << "="
                                    << av.code);
    ExpectMatchesNaive(*db, none, Predicate({av}));
  }

  // Seeded 2-4-conjunct selections over distinct attributes of both sides.
  std::vector<std::pair<Side, size_t>> attributes;
  for (Side side : {Side::kReviewer, Side::kItem}) {
    const Table& table = db->table(side);
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      if (table.schema().attribute(a).type != AttributeType::kNumeric) {
        attributes.push_back({side, a});
      }
    }
  }
  Rng rng(20);
  size_t two_sided = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::pair<Side, size_t>> picked = attributes;
    for (size_t i = picked.size() - 1; i > 0; --i) {
      std::swap(picked[i],
                picked[rng.UniformU32(static_cast<uint32_t>(i + 1))]);
    }
    picked.resize(2 + rng.UniformU32(3));
    Predicate reviewer_pred;
    Predicate item_pred;
    for (auto [side, a] : picked) {
      const Table& table = db->table(side);
      AttributeValue av{a, static_cast<ValueCode>(rng.UniformU32(
                               static_cast<uint32_t>(
                                   table.DistinctValueCount(a))))};
      Predicate& pred = side == Side::kReviewer ? reviewer_pred : item_pred;
      pred = pred.With(av);
    }
    if (!reviewer_pred.empty() && !item_pred.empty()) ++two_sided;
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectMatchesNaive(*db, reviewer_pred, item_pred);
  }
  EXPECT_GT(two_sided, 200u);

  // A value interned after FinalizeIndexes has no bitmap: it matches
  // nothing, alone or beside other conjuncts.
  ValueCode late = db->reviewers().InternValue(1, "centenarian");
  ASSERT_NE(late, kNullCode);
  Predicate late_pred({{1, late}});
  EXPECT_TRUE(db->MatchRecords(late_pred, none).empty());
  ExpectMatchesNaive(*db, late_pred, none);
  ExpectMatchesNaive(*db, late_pred, Predicate({item_conjuncts.front()}));
  ExpectMatchesNaive(*db, late_pred.With({0, 0}), none);

  // Both sides broad: member=yes and open=yes each hold most rows.
  Predicate member = Pred(reviewers, {{"member", "yes"}});
  Predicate open = Pred(items, {{"open", "yes"}});
  EXPECT_GT(db->MatchRows(Side::kReviewer, member).Count() * 2,
            db->num_reviewers());
  EXPECT_GT(db->MatchRows(Side::kItem, open).Count() * 2, db->num_items());
  EXPECT_GT(db->MatchRecords(member, open).size() * 2, db->num_records());
  ExpectMatchesNaive(*db, member, open);

  // Values held only by the unrated rows select no records.
  ExpectMatchesNaive(*db, Pred(reviewers, {{"languages", "la"}}), none);
  ExpectMatchesNaive(*db, none, Pred(items, {{"cuisine", "fondue"}}));
  EXPECT_TRUE(
      db->MatchRecords(Pred(reviewers, {{"languages", "la"}}), open).empty());
}

// MatchRecords is const and runs concurrently on pool workers (the
// recommendation fan-out): concurrent calls give the sequential answers.
TEST(SubjectiveDbTest, MatchRecordsFromPoolWorkersAgree) {
  auto db = MakeDbWithNulls(40, 16, 700, 2, 73);
  std::vector<std::pair<Predicate, Predicate>> selections;
  for (const AttributeValue& r : AllConjuncts(db->reviewers())) {
    selections.push_back({Predicate({r}), Predicate()});
    for (const AttributeValue& i : AllConjuncts(db->items())) {
      selections.push_back({Predicate({r}), Predicate({i})});
    }
  }
  std::vector<std::vector<RecordId>> expected;
  for (const auto& [reviewer_pred, item_pred] : selections) {
    expected.push_back(db->MatchRecords(reviewer_pred, item_pred));
  }
  const size_t kRounds = 4;
  std::vector<std::vector<RecordId>> got(kRounds * selections.size());
  ThreadPool pool(4);
  pool.ParallelFor(got.size(), [&](size_t i) {
    const auto& [reviewer_pred, item_pred] = selections[i % selections.size()];
    got[i] = db->MatchRecords(reviewer_pred, item_pred);
  });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % selections.size()]) << "call " << i;
  }
}

TEST(SubjectiveDbTest, SetScoreClampsAndPersists) {
  auto db = MakeTinyRestaurantDb();
  db->SetScore(0, 0, 9);
  EXPECT_EQ(db->score(0, 0), 5);
  db->SetScore(0, 0, -3);
  EXPECT_EQ(db->score(0, 0), 1);
}

// -------------------------------------------------------- RatingGroup ----

TEST(RatingGroupTest, EmptySelectionIsWholeDatabase) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup g = RatingGroup::Materialize(*db, GroupSelection{});
  EXPECT_EQ(g.size(), db->num_records());
}

TEST(RatingGroupTest, SelectionFilters) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection sel;
  sel.reviewer_pred = Pred(db->reviewers(), {{"gender", "F"}});
  RatingGroup g = RatingGroup::Materialize(*db, sel);
  EXPECT_GT(g.size(), 0u);
  EXPECT_LT(g.size(), db->num_records());
  for (RecordId r : g.records()) {
    EXPECT_TRUE(sel.reviewer_pred.Matches(db->reviewers(),
                                          db->reviewer_of(r)));
  }
}

TEST(RatingGroupTest, AverageScoreMatchesManual) {
  auto db = MakeTinyRestaurantDb();
  RatingGroup g = RatingGroup::Materialize(*db, GroupSelection{});
  double sum = 0;
  for (RecordId r : g.records()) sum += db->score(0, r);
  EXPECT_DOUBLE_EQ(g.AverageScore(0), sum / g.size());
}

TEST(GroupSelectionTest, EditDistance) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection a;
  a.reviewer_pred = Pred(db->reviewers(), {{"gender", "F"}});
  GroupSelection b = a;
  EXPECT_EQ(a.EditDistance(b), 0u);
  b.reviewer_pred = b.reviewer_pred.With(
      {static_cast<size_t>(db->reviewers().schema().IndexOf("age_group")),
       db->reviewers().LookupValue(1, "young")});
  EXPECT_EQ(a.EditDistance(b), 1u);  // add
  GroupSelection c;
  c.reviewer_pred = Pred(db->reviewers(), {{"gender", "M"}});
  EXPECT_EQ(a.EditDistance(c), 1u);  // change
  GroupSelection d;  // empty
  EXPECT_EQ(a.EditDistance(d), 1u);  // remove
  d.item_pred = Pred(db->items(), {{"city", "nyc"}});
  EXPECT_EQ(a.EditDistance(d), 2u);  // cross-side add + remove
}

// ---------------------------------------------------------- Operation ----

TEST(OperationTest, SingleEditEnumerationIsCompleteAndValid) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection current;
  current.reviewer_pred = Pred(db->reviewers(), {{"gender", "F"}});
  OperationEnumerationOptions options;
  options.max_edits = 1;
  std::vector<Operation> ops =
      EnumerateCandidateOperations(*db, current, options);
  ASSERT_FALSE(ops.empty());
  std::set<std::string> seen;
  for (const Operation& op : ops) {
    EXPECT_EQ(op.num_edits, 1u);
    EXPECT_EQ(current.EditDistance(op.target), 1u) << op.Describe(*db);
    EXPECT_NE(op.target, current);
    // No duplicates.
    EXPECT_TRUE(seen.insert(op.target.ToString(*db)).second);
  }
  // Expected count: removes (1 for gender) + changes (1: gender=M) +
  // adds over unconstrained attributes on both sides.
  size_t expected = 1 + 1;
  expected += db->reviewers().DistinctValueCount(1);  // age_group
  expected += db->reviewers().DistinctValueCount(2);  // occupation
  for (size_t a = 0; a < db->items().num_attributes(); ++a) {
    expected += db->items().DistinctValueCount(a);
  }
  EXPECT_EQ(ops.size(), expected);
}

TEST(OperationTest, TwoEditCandidatesRespectEditBound) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection current;
  current.reviewer_pred =
      Pred(db->reviewers(), {{"gender", "F"}, {"age_group", "young"}});
  OperationEnumerationOptions options;
  options.max_edits = 2;
  options.max_candidates = 10000;
  std::vector<Operation> ops =
      EnumerateCandidateOperations(*db, current, options);
  bool saw_composite = false;
  for (const Operation& op : ops) {
    size_t dist = current.EditDistance(op.target);
    EXPECT_GE(dist, 1u);
    EXPECT_LE(dist, 2u) << op.Describe(*db);
    if (op.kind == OperationKind::kComposite) saw_composite = true;
  }
  EXPECT_TRUE(saw_composite);
}

TEST(OperationTest, CandidateCapIsRespected) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection current;
  current.reviewer_pred = Pred(db->reviewers(), {{"gender", "F"}});
  OperationEnumerationOptions options;
  options.max_edits = 2;
  options.max_candidates = 30;
  std::vector<Operation> ops =
      EnumerateCandidateOperations(*db, current, options);
  // Singles are never truncated; composites fill at most the remaining
  // budget.
  OperationEnumerationOptions singles_only = options;
  singles_only.max_edits = 1;
  size_t num_singles =
      EnumerateCandidateOperations(*db, current, singles_only).size();
  EXPECT_LE(ops.size(), std::max(num_singles, options.max_candidates));
}

TEST(OperationTest, EnumerationIsDeterministic) {
  auto db = MakeTinyRestaurantDb();
  GroupSelection current;
  OperationEnumerationOptions options;
  auto a = EnumerateCandidateOperations(*db, current, options);
  auto b = EnumerateCandidateOperations(*db, current, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target);
  }
}

TEST(OperationTest, GeneralizeFromEmptySelectionYieldsNoRemoves) {
  auto db = MakeTinyRestaurantDb();
  OperationEnumerationOptions options;
  options.max_edits = 1;
  std::vector<Operation> ops =
      EnumerateCandidateOperations(*db, GroupSelection{}, options);
  for (const Operation& op : ops) {
    EXPECT_EQ(op.kind, OperationKind::kFilter);
  }
}

}  // namespace
}  // namespace subdex
