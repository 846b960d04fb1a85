// Crash-safe session tests (DESIGN.md §13): the journal record format,
// and — through the server's in-process routing core — the full durability
// loop: journal on mutation, replay on restart, digest verification,
// torn-tail truncation, divergence flagging (410), tombstoned deletes, and
// the read-only (503) degradation when journal writes start failing.
//
// ci/crash_smoke.sh covers the same protocol against a real subdexd
// process under randomized SIGKILL; these tests pin the semantics
// deterministically, in-process, so sanitizer runs see every code path.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/json.h"
#include "server/server.h"
#include "server/session_journal.h"
#include "storage/framed_log.h"
#include "storage/query_parser.h"
#include "tests/test_support.h"
#include "util/check.h"

namespace subdex {
namespace {

namespace fs = std::filesystem;

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

// ---------------------------------------------------------------------------
// Record encoding

TEST(JournalRecordTest, DigestHexRoundTrip) {
  const uint64_t cases[] = {0, 1, 0xdeadbeefcafef00dULL, ~0ULL};
  for (uint64_t digest : cases) {
    std::string hex = DigestToHex(digest);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t back = 0;
    ASSERT_TRUE(HexToDigest(hex, &back)) << hex;
    EXPECT_EQ(back, digest);
  }
  uint64_t out = 0;
  EXPECT_FALSE(HexToDigest("", &out));
  EXPECT_FALSE(HexToDigest("123", &out));
  EXPECT_FALSE(HexToDigest("00000000000000zz", &out));
  EXPECT_FALSE(HexToDigest("00000000000000000", &out));  // 17 digits
}

TEST(JournalRecordTest, FsyncPolicyParses) {
  JournalFsync policy = JournalFsync::kBatch;
  ASSERT_TRUE(ParseJournalFsync("never", &policy));
  EXPECT_EQ(policy, JournalFsync::kNever);
  ASSERT_TRUE(ParseJournalFsync("every_record", &policy));
  EXPECT_EQ(policy, JournalFsync::kEveryRecord);
  ASSERT_TRUE(ParseJournalFsync("batch", &policy));
  EXPECT_EQ(policy, JournalFsync::kBatch);
  EXPECT_FALSE(ParseJournalFsync("sometimes", &policy));
  EXPECT_STREQ(JournalFsyncName(JournalFsync::kEveryRecord), "every_record");
}

// Property: a step record is a faithful carrier for any selection the
// query grammar can express — including values that force quoting. Crash
// recovery replays selections through exactly this round trip
// (PredicateToQuery -> MakeStepRecord -> Dump -> Parse -> ParseStepRecord),
// so a value that breaks it would silently diverge a recovered session.
TEST(StepRecordProperty, AdversarialSelectionsSurviveJournalRoundTrip) {
  // One categorical attribute per side, stocked with hostile values: both
  // quote kinds (never together: the grammar cannot carry a value holding
  // both), whitespace, grammar metacharacters, UTF-8 and characters JSON
  // must escape.
  const std::vector<std::string> notes = {
      "it's",          "say \"hi\"", "two words",   "tab\tchar",
      "\xd0\xba\xd0\xbe\xd1\x84\xd0\xb5",  // UTF-8 "кофе"
      "a = b AND c",   "-",          " leading",    "trailing ",
      "(paren)",       "$bare-word_ok.1", "back\\slash",
  };
  Schema reviewer_schema({{"note", AttributeType::kCategorical}});
  Schema item_schema({{"tag", AttributeType::kCategorical}});
  auto db = std::make_unique<SubjectiveDatabase>(
      reviewer_schema, item_schema, std::vector<std::string>{"overall"}, 5);
  for (const std::string& note : notes) {
    Status appended = db->reviewers().AppendRow({note});
    ASSERT_TRUE(appended.ok()) << note;
    appended = db->items().AppendRow({std::string("tag_") + note});
    ASSERT_TRUE(appended.ok()) << note;
  }
  for (RowId row = 0; row < static_cast<RowId>(notes.size()); ++row) {
    ASSERT_TRUE(db->AddRating(row, row, {3.0}).ok());
  }
  db->FinalizeIndexes();

  // A query selecting `value` of the side's one attribute; values holding
  // ' are quoted with " instead.
  auto select = [&db](Side side, const std::string& value) {
    const std::string attr = side == Side::kReviewer ? "note" : "tag";
    auto pred =
        ParsePredicateReadOnly(db->table(side), attr + " = '" + value + "'");
    if (!pred.ok()) {
      pred = ParsePredicateReadOnly(db->table(side),
                                    attr + " = \"" + value + "\"");
    }
    SUBDEX_CHECK_MSG(pred.ok(), value.c_str());
    return std::move(pred).value();
  };

  // Every (reviewer value, item value) pairing, plus the empty query on
  // each side in turn.
  uint64_t digest = 0;
  for (size_t r = 0; r < notes.size(); ++r) {
    for (size_t i = 0; i < notes.size(); ++i, ++digest) {
      GroupSelection selection;
      if (r + 1 < notes.size()) {
        selection.reviewer_pred = select(Side::kReviewer, notes[r]);
      }
      if (i + 1 < notes.size()) {
        selection.item_pred = select(Side::kItem, "tag_" + notes[i]);
      }
      const std::string payload =
          MakeStepRecord(
              PredicateToQuery(db->reviewers(), selection.reviewer_pred),
              PredicateToQuery(db->items(), selection.item_pred),
              /*with_recommendations=*/i % 2 == 0, /*degraded=*/r % 2 == 0,
              digest)
              .Dump();
      Result<JsonValue> record = JsonValue::Parse(payload);
      ASSERT_TRUE(record.ok()) << payload;
      Result<JournaledStep> step = ParseStepRecord(*db, record.value());
      ASSERT_TRUE(step.ok()) << payload << ": " << step.status().message();
      EXPECT_EQ(step.value().selection, selection)
          << payload << " did not survive the round trip";
      EXPECT_EQ(step.value().digest, digest);
      EXPECT_EQ(step.value().with_recommendations, i % 2 == 0);
      EXPECT_EQ(step.value().degraded, r % 2 == 0);
    }
  }
}

TEST(JournalRecordTest, ParseStepRecordRejectsDamagedRecords) {
  auto db = testing_support::MakeTinyRestaurantDb();
  const JsonValue good =
      MakeStepRecord("gender = F", "", true, false, 0xabcULL);
  Result<JournaledStep> parsed = ParseStepRecord(*db, good);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_FALSE(parsed.value().selection.reviewer_pred.empty());
  EXPECT_TRUE(parsed.value().selection.item_pred.empty());
  EXPECT_EQ(parsed.value().digest, 0xabcULL);

  // Absent flags keep their defaults; absent queries and digests do not.
  JsonValue bare = JsonValue::Object();
  bare.Set("reviewers", JsonValue::Str(""));
  bare.Set("items", JsonValue::Str(""));
  bare.Set("digest", JsonValue::Str(DigestToHex(7)));
  parsed = ParseStepRecord(*db, bare);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().with_recommendations);
  EXPECT_FALSE(parsed.value().degraded);

  for (const char* drop : {"reviewers", "items", "digest"}) {
    JsonValue damaged = JsonValue::Object();
    for (const char* key : {"reviewers", "items", "digest"}) {
      if (std::string(key) != drop) damaged.Set(key, *bare.Find(key));
    }
    EXPECT_EQ(ParseStepRecord(*db, damaged).status().code(),
              StatusCode::kIoError)
        << "without " << drop;
  }
  // A value the dictionary lacks is an error, never interned.
  const size_t genders = db->reviewers().dictionary(0).size();
  Result<JournaledStep> unknown = ParseStepRecord(
      *db, MakeStepRecord("gender = X", "", true, false, 1));
  EXPECT_EQ(unknown.status().code(), StatusCode::kIoError);
  EXPECT_EQ(db->reviewers().dictionary(0).size(), genders);
}

// ---------------------------------------------------------------------------
// End-to-end durability through the routing core

class JournalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "subdex_journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    fs::remove_all(dir_);
    StartServer();
  }

  void TearDown() override {
    server_.reset();
    fs::remove_all(dir_);
  }

  SubdexServer::Options MakeOptions() {
    SubdexServer::Options options;
    // The tiny db has 12 ratings; without this no candidate operation
    // survives the default min_group_size and recommendations are empty.
    options.engine.min_group_size = 1;
    options.journal.dir = dir_;
    options.journal.fsync = JournalFsync::kNever;  // tests kill no process
    options.journal.segment_bytes = segment_bytes_;
    return options;
  }

  /// (Re)starts the server against the same journal dir — the in-process
  /// stand-in for a crash+restart (the old instance simply stops being
  /// asked; its sessions were only ever as durable as their journals).
  void StartServer() {
    server_ = std::make_unique<SubdexServer>(MakeOptions());
    SUBDEX_CHECK_OK(server_->RegisterDataset(
        "tiny", testing_support::MakeTinyRestaurantDb()));
    // Routing works without Start(); recovery is what Start() adds. Keep
    // sockets out of these tests.
    SUBDEX_CHECK_OK(server_->Start());
  }

  void Restart() {
    server_.reset();
    StartServer();
  }

  HttpResponse Call(const std::string& method, const std::string& target,
                    const std::string& body = "") {
    return server_->Handle(MakeRequest(method, target, body), token_);
  }

  JsonValue Body(const HttpResponse& response) {
    auto parsed = JsonValue::Parse(response.body);
    SUBDEX_CHECK_OK(parsed.status());
    return parsed.value();
  }

  std::string CreateSession(const std::string& body = "{}") {
    HttpResponse response = Call("POST", "/sessions", body);
    SUBDEX_CHECK_MSG(response.status == 201, "create failed");
    return Body(response).Find("session_id")->str();
  }

  /// Runs one step and returns the digest the client was acked with.
  std::string Step(const std::string& id, const std::string& body = "{}") {
    HttpResponse response = Call("POST", "/sessions/" + id + "/step", body);
    SUBDEX_CHECK_MSG(response.status == 200, "step failed");
    return Body(response).Find("digest")->str();
  }

  std::vector<std::string> ServedDigests(const std::string& id) {
    HttpResponse response = Call("GET", "/sessions/" + id);
    SUBDEX_CHECK_MSG(response.status == 200, "GET session failed");
    std::vector<std::string> out;
    const JsonValue body = Body(response);
    for (const JsonValue& digest : body.Find("digests")->items()) {
      out.push_back(digest.str());
    }
    return out;
  }

  /// The session's journal records as a restart would read them.
  std::vector<JsonValue> Records(const std::string& id) {
    Result<std::vector<SessionJournalReplay>> scanned =
        ScanJournalDir(MakeOptions().journal);
    SUBDEX_CHECK_OK(scanned.status());
    for (SessionJournalReplay& replay : scanned.value()) {
      if (replay.session_id == id) return std::move(replay.records);
    }
    return {};
  }

  /// Session journal segment paths, ascending sequence.
  std::vector<std::string> Segments(const std::string& id) {
    std::vector<std::string> out;
    JournalConfig config = MakeOptions().journal;
    for (uint64_t seq = 1;; ++seq) {
      std::string path = SessionJournal::SegmentPath(config, id, seq);
      if (!fs::exists(path)) break;
      out.push_back(path);
    }
    return out;
  }

  std::string dir_;
  size_t segment_bytes_ = 4u << 20;
  std::unique_ptr<SubdexServer> server_;
  CancellationToken token_;
};

TEST_F(JournalRecoveryTest, RestartRebuildsSessionsWithMatchingDigests) {
  const std::string a = CreateSession("{\"ttl_ms\":60000}");
  const std::string b = CreateSession("{\"config\":{\"k\":2}}");
  std::vector<std::string> acked_a, acked_b;
  acked_a.push_back(Step(a, "{\"reviewers\":\"gender = F\"}"));
  acked_a.push_back(Step(a, "{\"recommendation\":0}"));
  acked_b.push_back(Step(b, "{\"items\":\"city = nyc\"}"));
  // A reset wipes the digest chain — replay must honor it.
  ASSERT_EQ(Call("POST", "/sessions/" + b + "/reset").status, 200);
  acked_b.clear();
  acked_b.push_back(Step(b));

  Restart();

  EXPECT_EQ(server_->recovery().sessions_recovered, 2u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_EQ(server_->recovery().torn_tails, 0u);
  EXPECT_EQ(ServedDigests(a), acked_a);
  EXPECT_EQ(ServedDigests(b), acked_b);

  HttpResponse meta = Call("GET", "/sessions/" + a);
  ASSERT_EQ(meta.status, 200);
  EXPECT_TRUE(Body(meta).Find("recovered")->bool_value());
  EXPECT_FALSE(Body(meta).Find("read_only")->bool_value());
  EXPECT_EQ(Body(meta).Find("ttl_ms")->number(), 60000.0);

  // The rebuilt session keeps exploring: recommendation indexes resolve
  // against the replayed last step, and new steps journal as before.
  acked_a.push_back(Step(a, "{\"recommendation\":0}"));
  Restart();
  EXPECT_EQ(ServedDigests(a), acked_a);
}

TEST_F(JournalRecoveryTest, StepCutBeforeMaterializingRecovers) {
  const std::string id = CreateSession();
  // An already-expired deadline cuts the step before it materializes
  // anything: the client is acked an empty degraded result, and the
  // engine's history stays as it was.
  HttpResponse cut =
      Call("POST", "/sessions/" + id + "/step", "{\"deadline_ms\":1e-9}");
  ASSERT_EQ(cut.status, 200) << cut.body;
  const JsonValue cut_body = Body(cut);
  ASSERT_EQ(cut_body.Find("cut_phase")->str(), "materialize");
  std::vector<std::string> acked = {cut_body.Find("digest")->str()};
  // This step's maps depend on the history the cut step did not touch.
  acked.push_back(Step(id));

  Restart();
  ASSERT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_EQ(server_->recovery().sessions_recovered, 1u);
  EXPECT_EQ(ServedDigests(id), acked);
}

TEST_F(JournalRecoveryTest, CancelledStepIsNeitherJournaledNorRecovered) {
  const std::string id = CreateSession();
  std::vector<std::string> acked = {Step(id)};
  const size_t records_before = Records(id).size();

  CancellationToken cancelled;
  cancelled.RequestCancel();
  HttpResponse response = server_->Handle(
      MakeRequest("POST", "/sessions/" + id + "/step",
                  "{\"reviewers\":\"gender = F\"}"),
      cancelled);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_TRUE(Body(response).Find("cancelled")->bool_value());
  EXPECT_EQ(Records(id).size(), records_before);

  acked.push_back(Step(id, "{\"reviewers\":\"gender = M\"}"));
  Restart();
  ASSERT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_EQ(ServedDigests(id), acked);
}

TEST_F(JournalRecoveryTest, RecoveredIdsNeverCollideWithNewSessions) {
  const std::string a = CreateSession();
  Restart();
  const std::string b = CreateSession();
  EXPECT_NE(a, b);
  EXPECT_EQ(server_->sessions().ActiveCount(), 2u);
}

TEST_F(JournalRecoveryTest, TornTailIsTruncatedAndTheSessionStillServes) {
  const std::string id = CreateSession();
  std::vector<std::string> acked;
  acked.push_back(Step(id));
  acked.push_back(Step(id, "{\"reviewers\":\"gender = M\"}"));

  server_.reset();
  // Crash mid-append: garbage after the last whole record.
  std::vector<std::string> segments = Segments(id);
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out.write("\x21\x00\x00\x00\xde\xad\xbe", 7);
    ASSERT_TRUE(out.good());
  }
  StartServer();

  EXPECT_EQ(server_->recovery().sessions_recovered, 1u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_EQ(server_->recovery().torn_tails, 1u);
  EXPECT_EQ(ServedDigests(id), acked);

  // Resume truncated the tear, so appending keeps the segment readable.
  acked.push_back(Step(id));
  Restart();
  EXPECT_EQ(server_->recovery().torn_tails, 0u);
  EXPECT_EQ(ServedDigests(id), acked);
}

TEST_F(JournalRecoveryTest, TamperedDigestMakesTheSessionGone) {
  const std::string id = CreateSession();
  // Discard justified: this step's digest is read back from disk below.
  (void)Step(id);
  server_.reset();

  // Rewrite the segment with the step digest flipped: replay re-executes
  // the step, computes the honest digest, and must refuse to serve.
  std::vector<std::string> segments = Segments(id);
  ASSERT_EQ(segments.size(), 1u);
  FramedLogContents contents = ReadFramedLog(segments[0]);
  ASSERT_TRUE(contents.status.ok());
  ASSERT_EQ(contents.records.size(), 2u);  // create + step
  std::string& step_record = contents.records[1];
  size_t digest_pos = step_record.find("\"digest\":\"");
  ASSERT_NE(digest_pos, std::string::npos);
  char& first_digit = step_record[digest_pos + 10];
  first_digit = first_digit == '0' ? '1' : '0';
  fs::remove(segments[0]);
  {
    Result<FramedLogWriter> writer = FramedLogWriter::Create(segments[0]);
    ASSERT_TRUE(writer.ok());
    FramedLogWriter log = std::move(writer).value();
    for (const std::string& record : contents.records) {
      ASSERT_TRUE(log.Append(record).ok());
    }
  }
  StartServer();

  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 1u);
  // Divergent beats wrong: every route on the id answers 410 Gone.
  EXPECT_EQ(Call("GET", "/sessions/" + id).status, 410);
  EXPECT_EQ(Call("POST", "/sessions/" + id + "/step").status, 410);
  EXPECT_EQ(Call("DELETE", "/sessions/" + id).status, 410);
  EXPECT_EQ(server_->sessions().ActiveCount(), 0u);
}

TEST_F(JournalRecoveryTest, MidFileCorruptionMakesTheSessionGone) {
  const std::string id = CreateSession();
  // Discard justified: the digest is irrelevant once the file is damaged.
  (void)Step(id);
  (void)Step(id);
  server_.reset();

  std::vector<std::string> segments = Segments(id);
  ASSERT_EQ(segments.size(), 1u);
  // Flip one byte early in the file (inside the create record): a bad
  // record with valid data after it is corruption, not a torn tail.
  {
    std::fstream file(segments[0],
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    file.put('\x7f');
    ASSERT_TRUE(file.good());
  }
  StartServer();

  EXPECT_EQ(server_->recovery().sessions_divergent, 1u);
  EXPECT_EQ(Call("POST", "/sessions/" + id + "/step").status, 410);
}

TEST_F(JournalRecoveryTest, DeleteLeavesNothingToRecover) {
  const std::string id = CreateSession();
  // Discard justified: the session is deleted below; its digest is moot.
  (void)Step(id);
  ASSERT_FALSE(Segments(id).empty());
  // Journal directories written by older servers also hold a text mirror
  // of each session; DELETE must not leave it behind.
  const std::string mirror =
      SessionJournal::MirrorPath(MakeOptions().journal, id);
  std::ofstream(mirror) << "legacy mirror\n";
  ASSERT_TRUE(fs::exists(mirror));
  ASSERT_EQ(Call("DELETE", "/sessions/" + id).status, 200);
  EXPECT_TRUE(Segments(id).empty());
  EXPECT_FALSE(fs::exists(mirror));

  Restart();
  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
  EXPECT_EQ(Call("GET", "/sessions/" + id).status, 404);
}

TEST_F(JournalRecoveryTest, CrashedDeleteIsFinishedOnRecovery) {
  const std::string id = CreateSession();
  // Discard justified: the session is tombstoned below; its digest is moot.
  (void)Step(id);
  server_.reset();

  // A crash after the tombstone landed but before the unlink: the files
  // are still on disk, with a delete record at the end.
  std::vector<std::string> segments = Segments(id);
  ASSERT_EQ(segments.size(), 1u);
  FramedLogContents contents = ReadFramedLog(segments[0]);
  ASSERT_TRUE(contents.status.ok());
  {
    Result<FramedLogWriter> writer =
        FramedLogWriter::OpenForAppend(segments[0], contents.valid_bytes);
    ASSERT_TRUE(writer.ok());
    FramedLogWriter log = std::move(writer).value();
    ASSERT_TRUE(log.Append(MakeDeleteRecord().Dump()).ok());
  }
  StartServer();

  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_TRUE(Segments(id).empty()) << "recovery must finish the erase";
  EXPECT_EQ(Call("GET", "/sessions/" + id).status, 404);
}

TEST_F(JournalRecoveryTest, TtlReapErasesTheJournal) {
  const std::string id = CreateSession("{\"ttl_ms\":1}");
  ASSERT_FALSE(Segments(id).empty());
  // Let the 1 ms TTL lapse, then sweep synchronously (no reaper thread
  // races in tests).
  usleep(10 * 1000);
  // Discard justified: the background reaper may have swept first; the
  // on-disk outcome below is the assertion either way.
  (void)server_->sessions().ReapExpired();
  EXPECT_TRUE(Segments(id).empty());
  Restart();
  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
}

TEST_F(JournalRecoveryTest, RotationSplitsTheJournalAcrossSegments) {
  segment_bytes_ = 256;  // every step record overflows a 256-byte segment
  Restart();
  const std::string id = CreateSession();
  std::vector<std::string> acked;
  for (int i = 0; i < 4; ++i) acked.push_back(Step(id));
  EXPECT_GE(Segments(id).size(), 2u) << "no rotation happened";

  Restart();
  EXPECT_EQ(server_->recovery().sessions_recovered, 1u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_EQ(ServedDigests(id), acked);

  // A missing middle segment is corruption (acked records vanished), not
  // something to paper over.
  server_.reset();
  std::vector<std::string> segments = Segments(id);
  ASSERT_GE(segments.size(), 3u);
  fs::remove(segments[1]);
  StartServer();
  EXPECT_EQ(server_->recovery().sessions_divergent, 1u);
  EXPECT_EQ(Call("GET", "/sessions/" + id).status, 410);
}

TEST_F(JournalRecoveryTest, JournalFailureTurnsTheSessionReadOnly) {
  segment_bytes_ = 1;  // force a rotation attempt on every post-create append
  Restart();
  const std::string id = CreateSession();
  // Vanish the journal dir: the next append must rotate into a directory
  // that no longer exists, which fails even for root (no EPERM games).
  fs::remove_all(dir_);

  HttpResponse failed = Call("POST", "/sessions/" + id + "/step");
  EXPECT_EQ(failed.status, 503) << failed.body;
  bool has_retry_after = false;
  for (const auto& [name, value] : failed.extra_headers) {
    if (name == "Retry-After" && !value.empty()) has_retry_after = true;
  }
  EXPECT_TRUE(has_retry_after);

  // The failure latches: mutations stay 503, reads keep serving.
  EXPECT_EQ(Call("POST", "/sessions/" + id + "/step").status, 503);
  EXPECT_EQ(Call("POST", "/sessions/" + id + "/reset").status, 503);
  HttpResponse meta = Call("GET", "/sessions/" + id);
  ASSERT_EQ(meta.status, 200);
  EXPECT_TRUE(Body(meta).Find("read_only")->bool_value());
  // DELETE still works — it only removes state.
  EXPECT_EQ(Call("DELETE", "/sessions/" + id).status, 200);
}

TEST_F(JournalRecoveryTest, UnjournaledStepIsNeverAcked) {
  segment_bytes_ = 1;
  Restart();
  const std::string id = CreateSession();
  std::vector<std::string> acked;  // nothing gets acked below
  fs::remove_all(dir_);
  ASSERT_EQ(Call("POST", "/sessions/" + id + "/step").status, 503);
  server_.reset();

  // The dir is gone, so the restarted server finds no journal at all: the
  // 503'd step must not resurrect (it was never acknowledged), and the
  // session itself is gone (its create record died with the dir — the
  // client holding a 201 made that trade when the disk vanished).
  StartServer();
  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
  EXPECT_EQ(Call("GET", "/sessions/" + id).status, 404);
  EXPECT_TRUE(acked.empty());
}

TEST_F(JournalRecoveryTest, EmptyJournalShellIsDroppedNotDivergent) {
  const std::string id = CreateSession();
  server_.reset();
  // Simulate a crash after segment creation but before the create record
  // landed: truncate the segment to just its magic.
  std::vector<std::string> segments = Segments(id);
  ASSERT_EQ(segments.size(), 1u);
  fs::resize_file(segments[0], 8);
  StartServer();
  EXPECT_EQ(server_->recovery().sessions_recovered, 0u);
  EXPECT_EQ(server_->recovery().sessions_divergent, 0u);
  EXPECT_TRUE(Segments(id).empty());
}

}  // namespace
}  // namespace subdex
