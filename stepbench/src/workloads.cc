#include "workloads.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <latch>
#include <map>
#include <thread>

#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "engine/sde_engine.h"
#include "oracle.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/server.h"
#include "server/session_journal.h"
#include "storage/query_parser.h"
#include "util/stats.h"

namespace stepbench {

using namespace subdex;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// p90 needs ten samples beyond it: an untraced run keeps stepping past
// --seconds until it has completed this many steps.
constexpr size_t kMinSteps = 100;

// Datasets are fixed per workload; --seed drives only the user's choices.
constexpr uint64_t kDatasetSeed = 42;
// Yelp shape at a tenth of its published size, keeping all 93 restaurants.
constexpr double kYelpScale = 0.1;

// RP: two concurrent in-process session slots, each running fresh sessions
// of kRpSessionSteps steps. A session starts at the whole database, follows
// recommendations (mostly the first), returns to the whole database at step
// kRpReturnStep (its history now excludes the path it took) and follows
// recommendations again. Short sessions of a fixed shape keep a run's step
// mix steady from seed to seed: every run holds dozens of sessions that
// mostly share one path. Step cost falls with depth, and each depth is a
// fifth of all steps, so p50 lies in the middle of the depth-2 steps and
// p90 in the middle of the whole-database steps, never on the edge
// between two populations.
constexpr size_t kRpConcurrentSessions = 2;
constexpr size_t kRpSessionSteps = 10;
constexpr size_t kRpReturnStep = 5;
constexpr double kRpChoiceOdds[] = {0.9, 0.06, 0.04};

// UD script: kUdSessions sessions of kUdSessionSteps steps, replayed in
// order (and from the start again if a run outlasts the script). Each
// session starts at the whole database and returns to it once more, at a
// step its seeded generator picks (2 in 40 steps, well below the 10% that
// p90 would straddle); every other step drills down, rolls up or changes
// one value.
constexpr size_t kUdSessions = 50;
constexpr size_t kUdSessionSteps = 40;
constexpr double kUdDrillDown = 0.5;
constexpr double kUdRollUp = 0.25;  // the rest changes a value
constexpr size_t kUdMaxConjuncts = 4;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t DistinctSelections(const std::vector<GroupSelection>& selections) {
  std::vector<GroupSelection> distinct;
  for (const GroupSelection& s : selections) {
    if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
      distinct.push_back(s);
    }
  }
  return distinct.size();
}

void Fail(RunReport* report, const std::string& error) {
  if (report->correct) report->error = error;
  report->correct = false;
}

// Every journal of a run, the server's and the replay's scratch ones, is
// pinned to today's default fsync policy (batch, every 8 records), so that
// a change of the default does not change the work measured.
JournalConfig BatchJournal(const std::string& dir) {
  JournalConfig journal;
  journal.dir = dir;
  journal.fsync = JournalFsync::kBatch;
  journal.fsync_batch_records = 8;
  return journal;
}

// --- RP: recommendation-powered sessions ----------------------------------

// Follows one of the top recommendations: mostly the first.
GroupSelection NextRpSelection(const std::vector<Recommendation>& recs,
                               ChoiceRng& rng) {
  if (recs.empty()) return GroupSelection();
  const size_t n = std::min(recs.size(), std::size(kRpChoiceOdds));
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += kRpChoiceOdds[i];
  double u = rng.Uniform() * total;
  for (size_t i = 0; i < n; ++i) {
    if (u < kRpChoiceOdds[i]) return recs[i].operation.target;
    u -= kRpChoiceOdds[i];
  }
  return recs[n - 1].operation.target;
}

struct RpSlot {
  std::vector<double> step_ms;
  std::vector<std::vector<StepResult>> sessions;
  Clock::time_point finished;
  std::unique_ptr<StepReplayer> replayer;
  std::string replay_error;
};

void RunRpSlot(const SubjectiveDatabase* db, const RunOptions& options,
               size_t slot, std::latch* start, Clock::time_point* begin,
               std::atomic<size_t>* completed, RpSlot* out) {
  const EngineConfig config = SessionConfig();
  start->arrive_and_wait();
  const Clock::time_point deadline =
      *begin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.seconds));
  const size_t min_steps = options.trace ? 0 : kMinSteps;
  size_t done = 0;
  auto finished = [&] {
    if (options.max_steps > 0) return done >= options.max_steps;
    return Clock::now() >= deadline && completed->load() >= min_steps;
  };
  for (size_t session = 0; !finished(); ++session) {
    ChoiceRng rng(options.seed, slot, session);
    SdeEngine engine(db, config);
    if (out->replayer != nullptr) out->replayer->StartSession();
    std::vector<StepResult>& steps = out->sessions.emplace_back();
    GroupSelection selection;
    for (size_t s = 0; s < kRpSessionSteps && !finished(); ++s) {
      if (s == kRpReturnStep) selection = GroupSelection();
      const Clock::time_point t0 = Clock::now();
      StepResult result = engine.ExecuteStep(selection, true);
      out->step_ms.push_back(MsSince(t0));
      ++done;
      completed->fetch_add(1);
      if (out->replayer != nullptr && out->replay_error.empty()) {
        out->replay_error =
            out->replayer->Replay(selection, true, result.digest,
                                  result.elapsed_ms, &result.trace);
      }
      selection = NextRpSelection(result.recommendations, rng);
      steps.push_back(std::move(result));
    }
  }
  out->finished = Clock::now();
}

void RunRp(const SubjectiveDatabase& db, const RunOptions& options,
           RunReport* report) {
  const std::string replay_dir = options.work_dir + "/replay-" +
                                 std::to_string(::getpid());
  const JournalConfig scratch = BatchJournal(replay_dir);
  const SdeEngine probe(&db, SessionConfig());

  std::vector<RpSlot> slots(kRpConcurrentSessions);
  if (options.trace) {
    for (size_t i = 0; i < slots.size(); ++i) {
      slots[i].replayer = std::make_unique<StepReplayer>(
          &db, probe.config(), scratch, "slot" + std::to_string(i));
    }
  }
  std::latch start(static_cast<std::ptrdiff_t>(slots.size() + 1));
  Clock::time_point begin;
  std::atomic<size_t> completed{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < slots.size(); ++i) {
    threads.emplace_back(RunRpSlot, &db, std::cref(options), i, &start,
                         &begin, &completed, &slots[i]);
  }
  const double cpu_before = ProcessCpuSeconds();
  begin = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  report->cpu_s = ProcessCpuSeconds() - cpu_before;
  Clock::time_point end = begin;
  for (const RpSlot& slot : slots) end = std::max(end, slot.finished);
  report->wall_s = std::chrono::duration<double>(end - begin).count();
  report->peak_rss_mb = PeakRssMb();

  // Checks, outside the timed phase.
  for (size_t i = 0; i < slots.size(); ++i) {
    RpSlot& slot = slots[i];
    report->step_ms.insert(report->step_ms.end(), slot.step_ms.begin(),
                           slot.step_ms.end());
    if (!slot.replay_error.empty()) Fail(report, "replay: " + slot.replay_error);
    if (slot.replayer != nullptr) report->layers.Merge(slot.replayer->totals());
    for (size_t s = 0; s < slot.sessions.size(); ++s) {
      const std::vector<StepResult>& steps = slot.sessions[s];
      if (steps.empty()) continue;
      SessionDigests digests;
      digests.name = "slot" + std::to_string(i) + ".session" +
                     std::to_string(s);
      SessionChecker checker(&db, probe.config());
      std::vector<GroupSelection> visited;
      for (size_t k = 0; k < steps.size(); ++k) {
        const StepResult& step = steps[k];
        report->attempted++;
        report->engine_ms.push_back(step.elapsed_ms);
        digests.digests.push_back(step.digest);
        visited.push_back(step.selection);
        if (step.degraded || step.cancelled) {
          Fail(report, digests.name + " step " + std::to_string(k) +
                           " was degraded or cancelled");
        }
        if (std::string err = checker.Check(step); !err.empty()) {
          Fail(report, digests.name + " step " + std::to_string(k) + ": " +
                           err);
        }
      }
      digests.distinct_selections = DistinctSelections(visited);
      report->sessions.push_back(std::move(digests));
    }
  }
  std::error_code ec;
  fs::remove_all(replay_dir, ec);
}

// --- UD: user-driven sessions over HTTP with the journal on ---------------

struct UdStep {
  GroupSelection selection;
  /// The POST /sessions/{id}/step body, rendered before timing starts.
  std::string body;
};

bool CellValue(const Table& table, size_t attribute, RowId row,
               ChoiceRng& rng, ValueCode* code) {
  if (table.schema().attribute(attribute).type ==
      AttributeType::kMultiCategorical) {
    const std::vector<ValueCode>& codes = table.MultiCodesAt(attribute, row);
    if (codes.empty()) return false;
    *code = codes[rng.Index(codes.size())];
    return true;
  }
  *code = table.CodeAt(attribute, row);
  return *code != kNullCode;
}

RowId RowOf(const SubjectiveDatabase& db, Side side, RecordId r) {
  return side == Side::kReviewer ? db.reviewer_of(r) : db.item_of(r);
}

Predicate& MutablePred(GroupSelection& s, Side side) {
  return side == Side::kReviewer ? s.reviewer_pred : s.item_pred;
}

struct Conjunct {
  Side side;
  AttributeValue av;
};

std::vector<Conjunct> ConjunctsOf(const GroupSelection& s) {
  std::vector<Conjunct> out;
  for (Side side : {Side::kReviewer, Side::kItem}) {
    for (const AttributeValue& av : s.pred(side).conjuncts()) {
      out.push_back({side, av});
    }
  }
  return out;
}

GroupSelection RollUp(const GroupSelection& current, ChoiceRng& rng) {
  const std::vector<Conjunct> conjuncts = ConjunctsOf(current);
  const Conjunct& c = conjuncts[rng.Index(conjuncts.size())];
  GroupSelection next = current;
  MutablePred(next, c.side) = current.pred(c.side).Without(c.av.attribute);
  return next;
}

// One UD step from `current`: drill down, roll up or change a value, with
// values drawn from records of the group the new selection refines, so the
// new group always holds at least that record. A step never leads back to
// the whole database (a single conjunct changes instead of rolling up), so
// whole-database steps are exactly the scheduled ones.
GroupSelection NextUdSelection(const SubjectiveDatabase& db,
                               const GroupSelection& current,
                               ChoiceRng& rng) {
  const double action = rng.Uniform();
  const bool drill = current.size() == 0 ||
                     (current.size() < kUdMaxConjuncts && action < kUdDrillDown);
  if (drill) {
    std::vector<std::pair<Side, size_t>> open;
    for (Side side : {Side::kReviewer, Side::kItem}) {
      const Table& table = db.table(side);
      for (size_t a = 0; a < table.num_attributes(); ++a) {
        if (table.schema().attribute(a).type != AttributeType::kNumeric &&
            !current.pred(side).ConstrainsAttribute(a)) {
          open.emplace_back(side, a);
        }
      }
    }
    const std::vector<RecordId> group = NaiveSelect(db, current);
    for (int attempt = 0; attempt < 32 && !open.empty(); ++attempt) {
      const RecordId r = group[rng.Index(group.size())];
      const auto [side, attribute] = open[rng.Index(open.size())];
      ValueCode code = kNullCode;
      if (!CellValue(db.table(side), attribute, RowOf(db, side, r), rng,
                     &code)) {
        continue;
      }
      GroupSelection next = current;
      MutablePred(next, side) = current.pred(side).With({attribute, code});
      return next;
    }
    return current;
  }
  if (current.size() > 1 && action < kUdDrillDown + kUdRollUp) {
    return RollUp(current, rng);
  }
  // Change the value of one conjunct.
  const std::vector<Conjunct> conjuncts = ConjunctsOf(current);
  const Conjunct& c = conjuncts[rng.Index(conjuncts.size())];
  GroupSelection base = current;
  MutablePred(base, c.side) = current.pred(c.side).Without(c.av.attribute);
  const std::vector<RecordId> group = NaiveSelect(db, base);
  for (int attempt = 0; attempt < 32; ++attempt) {
    const RecordId r = group[rng.Index(group.size())];
    ValueCode code = kNullCode;
    if (!CellValue(db.table(c.side), c.av.attribute, RowOf(db, c.side, r), rng,
                   &code) ||
        code == c.av.code) {
      continue;
    }
    GroupSelection next = base;
    MutablePred(next, c.side) = base.pred(c.side).With({c.av.attribute, code});
    return next;
  }
  return current;
}

std::vector<std::vector<UdStep>> MakeUdScript(const SubjectiveDatabase& db,
                                              uint64_t seed) {
  std::vector<std::vector<UdStep>> script(kUdSessions);
  for (size_t s = 0; s < kUdSessions; ++s) {
    ChoiceRng rng(seed, 1000, s);
    const size_t return_step = 2 + rng.Index(kUdSessionSteps - 2);
    GroupSelection selection;
    for (size_t k = 0; k < kUdSessionSteps; ++k) {
      if (k == return_step) {
        selection = GroupSelection();
      } else if (k > 0) {
        selection = NextUdSelection(db, selection, rng);
      }
      JsonValue body = JsonValue::Object();
      body.Set("reviewers", JsonValue::Str(PredicateToQuery(
                                db.reviewers(), selection.reviewer_pred)));
      body.Set("items", JsonValue::Str(
                            PredicateToQuery(db.items(), selection.item_pred)));
      body.Set("with_recommendations", JsonValue::Bool(false));
      script[s].push_back({selection, body.Dump()});
    }
  }
  return script;
}

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

// One executed UD session: which script session it ran and what the
// server acknowledged.
struct UdSession {
  size_t script_index = 0;
  std::vector<uint64_t> digests;
  std::vector<double> elapsed_ms;
};

// Reads the session's journal back: it must hold the create record and
// then exactly the acknowledged step records, with their digests, in
// order. Adds the segment and mirror sizes to the report.
std::string VerifyJournal(const JournalConfig& config, const std::string& id,
                          const std::vector<uint64_t>& acknowledged,
                          RunReport* report) {
  Result<std::vector<SessionJournalReplay>> scan = ScanJournalDir(config);
  if (!scan.ok()) return "journal scan: " + scan.status().message();
  for (const SessionJournalReplay& replay : scan.value()) {
    if (replay.session_id != id) continue;
    if (!replay.status.ok()) return "journal: " + replay.status.message();
    if (replay.records.size() != acknowledged.size() + 1) {
      return "journal holds " + std::to_string(replay.records.size()) +
             " records for " + std::to_string(acknowledged.size()) +
             " acknowledged steps";
    }
    for (size_t i = 0; i < acknowledged.size(); ++i) {
      const JsonValue& record = replay.records[i + 1];
      const JsonValue* type = record.Find("type");
      const JsonValue* digest = record.Find("digest");
      uint64_t value = 0;
      if (type == nullptr || type->str() != "step" || digest == nullptr ||
          !HexToDigest(digest->str(), &value) || value != acknowledged[i]) {
        return "journal record " + std::to_string(i + 1) +
               " does not match acknowledged step " + std::to_string(i);
      }
    }
    for (uint64_t seq = 1; seq <= replay.last_seq; ++seq) {
      report->journal_bytes +=
          static_cast<double>(FileBytes(SessionJournal::SegmentPath(config, id, seq)));
    }
    report->mirror_bytes +=
        static_cast<double>(FileBytes(SessionJournal::MirrorPath(config, id)));
    return "";
  }
  return "no journal found for session " + id;
}

Result<std::string> CreateSession(const HttpClientOptions& client) {
  Result<HttpClientResponse> response =
      HttpFetch(client, "POST", "/sessions", R"({"dataset":"hotel"})");
  if (!response.ok()) return response.status();
  if (response.value().status != 201) {
    return Status::FailedPrecondition("POST /sessions answered " +
                            std::to_string(response.value().status));
  }
  Result<JsonValue> doc = JsonValue::Parse(response.value().body);
  if (!doc.ok()) return doc.status();
  const JsonValue* id = doc.value().Find("session_id");
  if (id == nullptr || !id->is_string()) {
    return Status::FailedPrecondition("POST /sessions returned no session id");
  }
  return id->str();
}

void RunUd(const SubjectiveDatabase& db, uint16_t port,
           const JournalConfig& journal, const RunOptions& options,
           RunReport* report) {
  const std::vector<std::vector<UdStep>> script = MakeUdScript(db, options.seed);
  HttpClientOptions client;
  client.port = port;

  JournalConfig scratch = journal;
  scratch.dir = journal.dir + "-replay";
  const SdeEngine probe(&db, SessionConfig());
  std::unique_ptr<StepReplayer> replayer;
  if (options.trace) {
    replayer = std::make_unique<StepReplayer>(&db, probe.config(), scratch,
                                              "replay");
  }

  std::vector<UdSession> sessions;
  const double budget_s = options.seconds;
  double timed_s = 0.0;
  const size_t min_steps = options.trace ? 0 : kMinSteps;
  size_t done = 0;
  auto finished = [&](double running_s) {
    if (options.max_steps > 0) return done >= options.max_steps;
    return timed_s + running_s >= budget_s && done >= min_steps;
  };
  for (size_t n = 0; !finished(0.0) && report->correct; ++n) {
    UdSession session;
    session.script_index = n % script.size();
    const std::vector<UdStep>& steps = script[session.script_index];
    Result<std::string> id = CreateSession(client);
    if (!id.ok()) {
      Fail(report, "create session: " + id.status().message());
      break;
    }
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point loop_start = Clock::now();
    std::vector<std::string> bodies;
    std::vector<double> round_trips;
    for (size_t k = 0; k < steps.size(); ++k) {
      if (finished(MsSince(loop_start) / 1000.0)) break;
      const Clock::time_point t0 = Clock::now();
      Result<HttpClientResponse> response = HttpFetch(
          client, "POST", "/sessions/" + id.value() + "/step", steps[k].body);
      const double rtt = MsSince(t0);
      ++done;
      report->attempted++;
      if (!response.ok() || response.value().status != 200) {
        // Every step must be answered 200: a refused step fails the run.
        report->failed++;
        const std::string why =
            response.ok()
                ? "answered " + std::to_string(response.value().status)
                : response.status().message();
        Fail(report, "session " + std::to_string(n) + " step " +
                         std::to_string(k) + ": " + why);
        break;
      }
      round_trips.push_back(rtt);
      bodies.push_back(std::move(response.value().body));
    }
    timed_s += MsSince(loop_start) / 1000.0;
    report->cpu_s += ProcessCpuSeconds() - cpu_before;

    // Outside the timed phase: decode the responses, read the journal back
    // (DELETE erases it), then end the session.
    for (size_t k = 0; k < bodies.size(); ++k) {
      Result<JsonValue> doc = JsonValue::Parse(bodies[k]);
      const JsonValue* digest = doc.ok() ? doc.value().Find("digest") : nullptr;
      const JsonValue* elapsed =
          doc.ok() ? doc.value().Find("elapsed_ms") : nullptr;
      uint64_t value = 0;
      if (digest == nullptr || elapsed == nullptr ||
          !HexToDigest(digest->str(), &value)) {
        Fail(report, "step response without digest or elapsed_ms");
        break;
      }
      report->step_ms.push_back(round_trips[k]);
      report->engine_ms.push_back(elapsed->number());
      report->overhead_ms.push_back(round_trips[k] - elapsed->number());
      report->response_bytes += static_cast<double>(bodies[k].size());
      session.digests.push_back(value);
      session.elapsed_ms.push_back(elapsed->number());
    }
    if (std::string err =
            VerifyJournal(journal, id.value(), session.digests, report);
        !err.empty()) {
      Fail(report, "session " + std::to_string(n) + ": " + err);
    }
    Result<HttpClientResponse> deleted =
        HttpFetch(client, "DELETE", "/sessions/" + id.value());
    if (!deleted.ok() || deleted.value().status / 100 != 2) {
      Fail(report, "DELETE /sessions/" + id.value() + " failed");
    }
    if (replayer != nullptr && report->correct) {
      replayer->StartSession();
      for (size_t k = 0; k < session.digests.size(); ++k) {
        std::string err =
            replayer->Replay(steps[k].selection, false, session.digests[k],
                             session.elapsed_ms[k], nullptr);
        if (!err.empty()) {
          Fail(report, "replay: " + err);
          break;
        }
      }
    }
    sessions.push_back(std::move(session));
  }
  report->wall_s = timed_s;
  report->peak_rss_mb = PeakRssMb();
  if (replayer != nullptr) report->layers = replayer->totals();

  // Each acknowledged digest must equal the digest of an in-process engine
  // running the same script; the in-process results are checked against
  // the naive recount. Script sessions repeat when a run outlasts the
  // script, so each is executed once.
  std::map<size_t, std::vector<uint64_t>> reference;
  for (size_t n = 0; n < sessions.size(); ++n) {
    const UdSession& session = sessions[n];
    const std::vector<UdStep>& steps = script[session.script_index];
    std::vector<uint64_t>& ref = reference[session.script_index];
    if (ref.size() < session.digests.size()) {
      ref.clear();
      SdeEngine engine(&db, SessionConfig());
      SessionChecker checker(&db, engine.config());
      for (size_t k = 0; k < session.digests.size(); ++k) {
        StepResult result = engine.ExecuteStep(steps[k].selection, false);
        ref.push_back(result.digest);
        if (std::string err = checker.Check(result); !err.empty()) {
          Fail(report, "script session " +
                           std::to_string(session.script_index) + " step " +
                           std::to_string(k) + ": " + err);
        }
      }
    }
    const std::vector<uint64_t> prefix(
        ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(
                                       session.digests.size()));
    if (std::string err = CompareDigests(session.digests, prefix);
        !err.empty()) {
      Fail(report, "session " + std::to_string(n) + ": " + err);
    }
    SessionDigests digests;
    digests.name = "session" + std::to_string(n) + ".script" +
                   std::to_string(session.script_index);
    digests.digests = session.digests;
    std::vector<GroupSelection> visited;
    for (size_t k = 0; k < session.digests.size(); ++k) {
      visited.push_back(steps[k].selection);
    }
    digests.distinct_selections = DistinctSelections(visited);
    report->sessions.push_back(std::move(digests));
  }
  std::error_code ec;
  fs::remove_all(scratch.dir, ec);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"movielens-rp", "yelp-rp",
                                                 "hotel-ud-journal"};
  return names;
}

ChoiceRng::ChoiceRng(uint64_t seed, uint64_t stream_a, uint64_t stream_b)
    : gen_(SplitMix64(SplitMix64(SplitMix64(seed) ^ stream_a) ^ stream_b)) {}

double ChoiceRng::Uniform() {
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

size_t ChoiceRng::Index(size_t n) {
  return static_cast<size_t>(Uniform() * static_cast<double>(n)) % n;
}

EngineConfig SessionConfig() {
  EngineConfig config;  // k=3, o=3, l=3, n=10, hybrid pruning (Table 3)
  config.num_threads = 1;
  config.operations.max_candidates = 80;
  return config;
}

std::unique_ptr<SubjectiveDatabase> MakeDataset(const std::string& workload) {
  if (workload == "movielens-rp") {
    return GenerateDataset(MovielensSpec(), kDatasetSeed);
  }
  if (workload == "yelp-rp") {
    DatasetSpec spec = YelpSpec().Scaled(kYelpScale);
    spec.num_items = YelpSpec().num_items;
    return GenerateDataset(spec, kDatasetSeed);
  }
  return GenerateDataset(HotelSpec(), kDatasetSeed);
}

namespace {

// Restricts the process, and every thread it starts afterwards, to the
// first CPU it may use.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

// The times of one set-up: dataset generation and, on hotel-ud-journal,
// the server start.
struct SetupTimes {
  double generate_s = 0.0;
  double server_start_s = 0.0;
};

struct Setup {
  std::shared_ptr<SubjectiveDatabase> db;
  std::unique_ptr<SubdexServer> server;
  SetupTimes times;
  Status status;
};

Setup SetUp(const RunOptions& options, bool ud, const JournalConfig& journal) {
  Setup setup;
  std::error_code ec;
  fs::remove_all(journal.dir, ec);
  const Clock::time_point t0 = Clock::now();
  setup.db = MakeDataset(options.workload);
  const Clock::time_point t1 = Clock::now();
  if (ud) {
    SubdexServer::Options server_options;
    server_options.http.num_workers = 1;
    server_options.http.max_body_bytes = options.max_body_bytes;
    server_options.engine = SessionConfig();
    server_options.journal = journal;
    setup.server = std::make_unique<SubdexServer>(server_options);
    const Status registered = setup.server->RegisterDataset("hotel", setup.db);
    setup.status = registered.ok() ? setup.server->Start() : registered;
  }
  const Clock::time_point t2 = Clock::now();
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  setup.times = {seconds(t0, t1), seconds(t1, t2)};
  return setup;
}

// Times one set-up in a forked child, so that its memory never counts in
// this process's peak RSS. Call it only while this process runs a single
// thread.
Result<SetupTimes> TimeSetUpInChild(const RunOptions& options, bool ud,
                                    const JournalConfig& journal) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IoError("pipe failed");
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The child never returns into the caller's code, not even by an
    // exception.
    bool sent = false;
    try {
      ::close(fds[0]);
      Setup setup = SetUp(options, ud, journal);
      if (setup.server != nullptr) setup.server->Stop();
      sent = setup.status.ok() &&
             ::write(fds[1], &setup.times, sizeof(setup.times)) ==
                 static_cast<ssize_t>(sizeof(setup.times));
    } catch (...) {
    }
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  SetupTimes times;
  ssize_t got = -1;
  int wstatus = 0;
  if (pid > 0) {
    do {
      got = ::read(fds[0], &times, sizeof(times));
    } while (got < 0 && errno == EINTR);
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  ::close(fds[0]);
  if (pid < 0) return Status::IoError("fork failed");
  if (got != static_cast<ssize_t>(sizeof(times)) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::IoError("set-up in a child process failed");
  }
  return times;
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  report.cores = UsableCores();
  const bool ud = options.workload == "hotel-ud-journal";
  // The UD session's client and the server's threads hand each step to one
  // another two or three times. On one CPU every hand-off is a same-CPU
  // switch; across CPUs its wake-up latency varies with the load on the
  // virtual machine's host and dominated the run-to-run spread.
  if (ud) PinToOneCpu();
  const size_t repeats = std::max<size_t>(1, options.setup_repeats);
  const std::string journal_base =
      options.work_dir + "/journal-" + std::to_string(::getpid());
  auto journal_dir = [&](size_t rep) {
    return journal_base + "-" + std::to_string(rep);
  };
  auto remove_journals = [&] {
    for (size_t rep = 0; rep < repeats; ++rep) {
      std::error_code ec;
      fs::remove_all(journal_dir(rep), ec);
    }
  };

  // Set-up is timed `repeats` times: all but the last in forked children,
  // the last in this process, whose dataset and server the run then uses.
  std::vector<double> setup_s, generate_s, server_start_s;
  auto record = [&](const SetupTimes& t) {
    generate_s.push_back(t.generate_s);
    server_start_s.push_back(t.server_start_s);
    setup_s.push_back(t.generate_s + t.server_start_s);
  };
  for (size_t rep = 0; rep + 1 < repeats; ++rep) {
    Result<SetupTimes> times =
        TimeSetUpInChild(options, ud, BatchJournal(journal_dir(rep)));
    if (!times.ok()) {
      Fail(&report, "set-up: " + times.status().message());
      remove_journals();
      return report;
    }
    record(times.value());
  }
  const JournalConfig journal = BatchJournal(journal_dir(repeats - 1));
  Setup setup = SetUp(options, ud, journal);
  if (!setup.status.ok()) {
    Fail(&report, "server start: " + setup.status.message());
    remove_journals();
    return report;
  }
  record(setup.times);
  report.setup_s = Median(setup_s);
  report.generate_s = Median(generate_s);
  report.server_start_s = ud ? Median(server_start_s) : 0.0;
  report.setup_peak_rss_mb = PeakRssMb();
  const std::shared_ptr<SubjectiveDatabase> db = setup.db;
  std::unique_ptr<SubdexServer> server = std::move(setup.server);

  if (ud) {
    RunUd(*db, server->port(), journal, options, &report);
    server->Stop();
    server.reset();
    remove_journals();
  } else {
    RunRp(*db, options, &report);
  }
  if (!options.trace && options.max_steps == 0 &&
      SamplesBeyond(report.completed(), 0.9) < 10) {
    Fail(&report, "only " + std::to_string(report.completed()) +
                      " steps completed; p90 needs at least " +
                      std::to_string(kMinSteps));
  }
  if (report.completed() == 0) Fail(&report, "no step completed");
  return report;
}

std::vector<Metric> EndToEndMetrics(const RunReport& r) {
  const double n = static_cast<double>(std::max<size_t>(1, r.completed()));
  return {
      {"step_p50_ms", OrderStatistic(r.step_ms, 0.5), "ms"},
      {"step_p90_ms", OrderStatistic(r.step_ms, 0.9), "ms"},
      {"steps_per_s", r.wall_s > 0 ? r.completed() / r.wall_s : 0.0,
       "steps/s"},
      {"cpu_ms_per_step", r.cpu_s * 1000.0 / n, "ms"},
      {"setup_s", r.setup_s, "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunReport& r) {
  const LayerTotals& t = r.layers;
  auto per_step = [&](double total) {
    return t.steps == 0 ? 0.0 : total / static_cast<double>(t.steps);
  };
  auto ratio = [](double part, double whole) {
    return whole <= 0.0 ? 0.0 : part / whole;
  };
  const double completed = static_cast<double>(std::max<size_t>(1, r.completed()));
  const double maps = static_cast<double>(t.maps_considered);
  return {
      {"subjective.materialize_ms_per_step", per_step(t.materialize_ms), "ms"},
      {"subjective.wasted_materialize_ms_per_step",
       per_step(t.wasted_materialize_ms), "ms"},
      {"subjective.useful_candidate_ratio",
       ratio(static_cast<double>(t.candidates_kept),
             static_cast<double>(t.candidates_materialized)),
       "ratio"},
      {"subjective.enumerate_ms_per_step", per_step(t.enumerate_ms), "ms"},
      {"pruning.generate_ms_per_step", per_step(t.generate_ms), "ms"},
      {"pruning.record_updates_per_step",
       per_step(static_cast<double>(t.record_updates)), "count"},
      {"pruning.maps_considered_per_step", per_step(maps), "count"},
      {"pruning.ci_pruned_ratio", ratio(static_cast<double>(t.pruned_ci), maps),
       "ratio"},
      {"pruning.mab_pruned_ratio",
       ratio(static_cast<double>(t.pruned_mab), maps), "ratio"},
      {"pruning.survivor_ratio", ratio(static_cast<double>(t.survivors), maps),
       "ratio"},
      {"core.gmm_ms_per_step", per_step(t.gmm_ms), "ms"},
      {"engine.step_ms_p50", OrderStatistic(r.engine_ms, 0.5), "ms"},
      {"engine.display_ms_per_step", per_step(t.display_ms), "ms"},
      {"engine.fanout_ms_per_step", per_step(t.fanout_ms), "ms"},
      {"engine.fanout_candidates_per_step",
       per_step(static_cast<double>(t.fanout_candidates)), "count"},
      {"engine.cache_hit_ratio",
       ratio(static_cast<double>(t.cache_hits),
             static_cast<double>(t.cache_lookups)),
       "ratio"},
      {"engine.digest_us_per_step", per_step(t.digest_us), "us"},
      {"engine.attributed_share", t.AttributedShare(), "ratio"},
      {"server.overhead_ms_p50", OrderStatistic(r.overhead_ms, 0.5), "ms"},
      {"server.overhead_ms_p90", OrderStatistic(r.overhead_ms, 0.9), "ms"},
      {"server.response_bytes_per_step", r.response_bytes / completed,
       "bytes"},
      {"server.journal_append_ms_p50",
       OrderStatistic(t.journal_append_ms, 0.5), "ms"},
      {"server.journal_bytes_per_step", r.journal_bytes / completed, "bytes"},
      {"server.mirror_bytes_per_step", r.mirror_bytes / completed, "bytes"},
      {"server.start_s", r.server_start_s, "s"},
      {"storage.query_codec_us_per_step", per_step(t.codec_us), "us"},
      {"datagen.generate_s", r.generate_s, "s"},
  };
}

}  // namespace stepbench
