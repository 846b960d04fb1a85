// Fuzz harness for the subjective-database loaders (subjective/db_io.h).
//
// The first input byte selects the target; the rest is the payload:
//   even byte — ParseManifest over the payload. On success the manifest is
//               additionally used to construct a SubjectiveDatabase, which
//               proves the documented contract that a parsed manifest can
//               never trip the constructor's CHECKs (scale range, empty
//               dimension list, duplicate/empty attribute names).
//   odd byte  — LoadRatingsCsv over the payload into a small two-reviewer,
//               two-item database built fresh per input. On success the
//               indexes are finalized and MatchRecords is checked against a
//               per-record recount for every selection of at most one
//               conjunct per side, so fuzzed rating lists (duplicate pairs,
//               rows without ratings) reach the gather.
// Any abort is a finding; all malformed input must come back as a Status.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "subjective/db_io.h"
#include "subjective/subjective_db.h"

namespace {

std::unique_ptr<subdex::SubjectiveDatabase> MakeSmallDb() {
  subdex::Schema reviewer_schema(
      {{"level", subdex::AttributeType::kCategorical}});
  subdex::Schema item_schema({{"kind", subdex::AttributeType::kCategorical}});
  auto db = std::make_unique<subdex::SubjectiveDatabase>(
      reviewer_schema, item_schema,
      std::vector<std::string>{"food", "service"}, 5);
  if (!db->reviewers().AppendRow({std::string("gold")}).ok()) std::abort();
  if (!db->reviewers().AppendRow({std::string("new")}).ok()) std::abort();
  if (!db->items().AppendRow({std::string("cafe")}).ok()) std::abort();
  if (!db->items().AppendRow({std::string("bar")}).ok()) std::abort();
  return db;
}

// The empty predicate and one predicate per value of attribute 0.
std::vector<subdex::Predicate> OneConjunctPredicates(
    const subdex::Table& table) {
  std::vector<subdex::Predicate> preds(1);
  for (size_t v = 0; v < table.DistinctValueCount(0); ++v) {
    preds.push_back(
        subdex::Predicate({{0, static_cast<subdex::ValueCode>(v)}}));
  }
  return preds;
}

// MatchRecords must equal a per-record recount for the empty selection,
// every single conjunct and every reviewer x item conjunct pair.
void CheckMatchRecords(const subdex::SubjectiveDatabase& db) {
  for (const subdex::Predicate& rp : OneConjunctPredicates(db.reviewers())) {
    for (const subdex::Predicate& ip : OneConjunctPredicates(db.items())) {
      std::vector<subdex::RecordId> expected;
      for (subdex::RecordId r = 0; r < db.num_records(); ++r) {
        if (rp.Matches(db.reviewers(), db.reviewer_of(r)) &&
            ip.Matches(db.items(), db.item_of(r))) {
          expected.push_back(r);
        }
      }
      if (db.MatchRecords(rp, ip) != expected) std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data + 1), size - 1));
  if (data[0] % 2 == 0) {
    subdex::Result<subdex::DbManifest> manifest = subdex::ParseManifest(in);
    if (manifest.ok()) {
      const subdex::DbManifest& m = manifest.value();
      subdex::SubjectiveDatabase db(subdex::Schema(m.reviewer_attrs),
                                    subdex::Schema(m.item_attrs),
                                    m.dimensions, m.scale);
      volatile size_t dims = db.num_dimensions();
      (void)dims;
    }
  } else {
    std::unique_ptr<subdex::SubjectiveDatabase> db = MakeSmallDb();
    subdex::Status st = subdex::LoadRatingsCsv(in, db.get());
    if (st.ok()) {
      db->FinalizeIndexes();
      CheckMatchRecords(*db);
    }
  }
  return 0;
}
