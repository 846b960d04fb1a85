#include "server/server.h"

#include <cmath>
#include <filesystem>
#include <utility>
#include <vector>

#include "server/json.h"
#include "server/json_wire.h"
#include "storage/query_parser.h"
#include "util/metrics.h"

namespace subdex {

namespace {

struct ServerMetrics {
  Counter& steps;
  Counter& recovered;
  Counter& divergent;

  static ServerMetrics& Get() {
    static ServerMetrics m{
        MetricsRegistry::Global().GetCounter(
            "subdex_server_steps_total",
            "Exploration steps executed over the HTTP API"),
        MetricsRegistry::Global().GetCounter(
            "subdex_sessions_recovered_total",
            "Sessions rebuilt from their journal at startup"),
        MetricsRegistry::Global().GetCounter(
            "subdex_sessions_divergent_total",
            "Sessions whose journal failed replay verification (410)"),
    };
    return m;
  }
};

HttpResponse ErrorResponse(int status, const std::string& message) {
  JsonValue body = JsonValue::Object();
  body.Set("error", JsonValue::Str(message));
  return HttpResponse::Json(status, body.Dump());
}

HttpResponse CapacityResponse(const std::string& message,
                              int retry_after_seconds) {
  HttpResponse response = ErrorResponse(429, message);
  response.extra_headers.emplace_back("Retry-After",
                                      std::to_string(retry_after_seconds));
  return response;
}

/// 503 for durability failures (journal write failed, session read-only):
/// the state is intact in memory, the operator can free disk and restart,
/// so the condition is advertised as retryable.
HttpResponse UnavailableResponse(const std::string& message,
                                 int retry_after_seconds) {
  HttpResponse response = ErrorResponse(503, message);
  response.extra_headers.emplace_back("Retry-After",
                                      std::to_string(retry_after_seconds));
  return response;
}

/// Body -> JSON object. An empty body means "all defaults" (an object with
/// no members); anything else must parse as a JSON object.
Result<JsonValue> ParseBodyObject(const HttpRequest& request) {
  if (request.body.empty()) return JsonValue::Object();
  Result<JsonValue> parsed = JsonValue::Parse(request.body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return parsed;
}

/// Applies the request's "config" object onto the per-session engine
/// template. Only a safe allowlist of knobs is exposed — pruning schemes,
/// distance kinds and the like stay server-side; unknown keys are an error
/// rather than silently ignored (a typoed knob should not look accepted).
Status ApplyConfigOverrides(const JsonValue& config, size_t max_threads,
                            EngineConfig* engine) {
  size_t seed = static_cast<size_t>(engine->seed);
  const std::pair<const char*, size_t*> knobs[] = {
      {"k", &engine->k},
      {"o", &engine->o},
      {"l", &engine->l},
      {"num_phases", &engine->num_phases},
      {"num_threads", &engine->num_threads},
      {"seed", &seed},
      {"min_group_size", &engine->min_group_size},
      {"max_candidates", &engine->operations.max_candidates},
      {"group_cache_capacity", &engine->group_cache_capacity},
  };
  for (const auto& [key, value] : config.members()) {
    // Discard justified: values are read through the knob table below;
    // this pass only rejects typoed keys instead of silently ignoring them.
    (void)value;
    bool known = false;
    for (const auto& [name, target] : knobs) {
      // Discard justified: key-set validation only; `target` is written in
      // the WireCountField loop below.
      (void)target;
      if (key == name) known = true;
    }
    if (!known) {
      return Status::InvalidArgument("unknown config knob '" + key + "'");
    }
  }
  for (const auto& [name, target] : knobs) {
    Status status = WireCountField(config, name, target);
    if (!status.ok()) return status;
  }
  engine->seed = seed;
  if (engine->k == 0 || engine->o == 0 || engine->l == 0 ||
      engine->num_phases == 0) {
    return Status::InvalidArgument(
        "'k', 'o', 'l' and 'num_phases' must be at least 1");
  }
  if (engine->num_threads == 0) engine->num_threads = 1;
  if (engine->num_threads > max_threads) {
    return Status::InvalidArgument(
        "'num_threads' exceeds the server cap of " +
        std::to_string(max_threads));
  }
  return Status::Ok();
}

JsonValue RenderSelection(const SubjectiveDatabase& db,
                          const GroupSelection& selection) {
  JsonValue out = JsonValue::Object();
  out.Set("reviewers",
          JsonValue::Str(PredicateToQuery(db.table(Side::kReviewer),
                                          selection.reviewer_pred)));
  out.Set("items", JsonValue::Str(PredicateToQuery(db.table(Side::kItem),
                                                   selection.item_pred)));
  return out;
}

JsonValue RenderMap(const SubjectiveDatabase& db, const ScoredRatingMap& map) {
  const RatingMapKey& key = map.map.key();
  const Table& table = db.table(key.side);
  JsonValue out = JsonValue::Object();
  out.Set("side", JsonValue::Str(SideName(key.side)));
  out.Set("attribute",
          JsonValue::Str(table.schema().attribute(key.attribute).name));
  out.Set("dimension", JsonValue::Str(db.dimension_name(key.dimension)));
  out.Set("utility", JsonValue::Number(map.dw_utility));
  out.Set("group_size",
          JsonValue::Number(static_cast<double>(map.map.full_group_size())));
  JsonValue subgroups = JsonValue::Array();
  for (const Subgroup& sg : map.map.subgroups()) {
    JsonValue row = JsonValue::Object();
    row.Set("value", JsonValue::Str(
                         sg.value == kNullCode
                             ? "unspecified"
                             : table.dictionary(key.attribute).ValueOf(
                                   sg.value)));
    row.Set("count", JsonValue::Number(static_cast<double>(sg.count())));
    row.Set("average", JsonValue::Number(sg.average()));
    subgroups.Append(std::move(row));
  }
  out.Set("subgroups", std::move(subgroups));
  return out;
}

JsonValue RenderRecommendation(const SubjectiveDatabase& db,
                               const Recommendation& reco) {
  JsonValue out = JsonValue::Object();
  out.Set("kind", JsonValue::Str(OperationKindName(reco.operation.kind)));
  out.Set("target", RenderSelection(db, reco.operation.target));
  out.Set("utility", JsonValue::Number(reco.utility));
  out.Set("group_size",
          JsonValue::Number(static_cast<double>(reco.group_size)));
  return out;
}

JsonValue RenderStepResult(const std::string& session_id,
                           const SubjectiveDatabase& db,
                           const StepResult& result) {
  JsonValue out = JsonValue::Object();
  out.Set("session_id", JsonValue::Str(session_id));
  out.Set("selection", RenderSelection(db, result.selection));
  out.Set("group_size",
          JsonValue::Number(static_cast<double>(result.group_size)));
  out.Set("elapsed_ms", JsonValue::Number(result.elapsed_ms));
  out.Set("degraded", JsonValue::Bool(result.degraded));
  out.Set("cancelled", JsonValue::Bool(result.cancelled));
  out.Set("cut_phase", JsonValue::Str(StepPhaseName(result.cut_phase)));
  JsonValue maps = JsonValue::Array();
  for (const ScoredRatingMap& map : result.maps) {
    maps.Append(RenderMap(db, map));
  }
  out.Set("maps", std::move(maps));
  JsonValue recos = JsonValue::Array();
  for (const Recommendation& reco : result.recommendations) {
    recos.Append(RenderRecommendation(db, reco));
  }
  out.Set("recommendations", std::move(recos));
  return out;
}

}  // namespace

SubdexServer::SubdexServer(Options options)
    : options_(std::move(options)),
      sessions_(options_.sessions),
      http_(options_.http,
            [this](const HttpRequest& request,
                   const CancellationToken& disconnect) {
              return Handle(request, disconnect);
            }) {}

SubdexServer::~SubdexServer() { Stop(); }

Status SubdexServer::RegisterDataset(
    const std::string& name, std::shared_ptr<const SubjectiveDatabase> db) {
  if (started_) {
    return Status::FailedPrecondition(
        "datasets must be registered before Start()");
  }
  if (name.empty()) return Status::InvalidArgument("dataset name is empty");
  if (db == nullptr || !db->finalized()) {
    return Status::InvalidArgument("dataset '" + name + "' is not finalized");
  }
  if (datasets_.count(name) > 0) {
    return Status::InvalidArgument("dataset '" + name +
                                   "' is already registered");
  }
  if (datasets_.empty()) default_dataset_ = name;
  datasets_.emplace(name, std::move(db));
  return Status::Ok();
}

Status SubdexServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (datasets_.empty()) {
    return Status::FailedPrecondition(
        "no datasets registered; call RegisterDataset first");
  }
  if (options_.journal.enabled()) {
    Status recovered = RecoverSessions();
    if (!recovered.ok()) return recovered;
  }
  sessions_.Start();
  Status status = http_.Start();
  if (!status.ok()) {
    sessions_.Stop();
    return status;
  }
  started_ = true;
  return Status::Ok();
}

void SubdexServer::Stop() {
  if (!started_) return;
  // HTTP first so no new requests race the reaper shutdown; sessions (and
  // their engines) go down with the manager's destructor.
  http_.Stop();
  sessions_.Stop();
  started_ = false;
}

HttpResponse SubdexServer::Handle(const HttpRequest& request,
                                  const CancellationToken& disconnect) {
  const std::string& target = request.target;
  if (target == "/healthz") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    return HandleHealthz();
  }
  if (target == "/metrics") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    return HandleMetrics();
  }
  if (target == "/sessions") {
    if (request.method != "POST") return ErrorResponse(405, "use POST");
    return HandleCreateSession(request);
  }
  if (target.rfind("/sessions/", 0) == 0) {
    std::string rest = target.substr(10);
    size_t slash = rest.find('/');
    std::string id = rest.substr(0, slash);
    std::string action =
        slash == std::string::npos ? "" : rest.substr(slash + 1);
    if (id.empty()) return ErrorResponse(404, "missing session id");
    if (auto divergent = divergent_.find(id); divergent != divergent_.end()) {
      // Crash recovery could not prove this session's replayed state
      // matches what its client saw; refusing beats serving a guess.
      return ErrorResponse(410, "session '" + id +
                                    "' failed crash recovery (" +
                                    divergent->second + ") and is gone");
    }
    if (action.empty()) {
      if (request.method == "GET") return HandleGetSession(id);
      if (request.method != "DELETE") {
        return ErrorResponse(405, "use GET or DELETE");
      }
      return HandleDelete(id);
    }
    if (action == "step") {
      if (request.method != "POST") return ErrorResponse(405, "use POST");
      return HandleStep(id, request, disconnect);
    }
    if (action == "reset") {
      if (request.method != "POST") return ErrorResponse(405, "use POST");
      return HandleReset(id);
    }
    return ErrorResponse(404, "unknown session action '" + action + "'");
  }
  return ErrorResponse(404, "unknown route '" + target + "'");
}

HttpResponse SubdexServer::HandleCreateSession(const HttpRequest& request) {
  Result<JsonValue> body = ParseBodyObject(request);
  if (!body.ok()) return ErrorResponse(400, body.status().message());

  std::string dataset = default_dataset_;
  if (const JsonValue* v = body.value().Find("dataset"); v != nullptr) {
    if (!v->is_string()) return ErrorResponse(400, "'dataset' must be a string");
    dataset = v->str();
  }
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return ErrorResponse(404, "unknown dataset '" + dataset + "'");
  }

  double ttl_ms = 0;
  if (Status status = WireMsField(body.value(), "ttl_ms", &ttl_ms);
      !status.ok()) {
    return ErrorResponse(400, status.message());
  }

  EngineConfig config = options_.engine;
  if (const JsonValue* v = body.value().Find("config"); v != nullptr) {
    if (!v->is_object()) return ErrorResponse(400, "'config' must be an object");
    Status status =
        ApplyConfigOverrides(*v, options_.max_threads_per_session, &config);
    if (!status.ok()) return ErrorResponse(400, status.message());
  }

  SessionManager::SessionSetup setup;
  if (options_.journal.enabled()) {
    setup = [this, &dataset, &config](ServerSession& session) -> Status {
      Result<std::unique_ptr<SessionJournal>> journal =
          SessionJournal::Start(options_.journal, session.id);
      if (!journal.ok()) return journal.status();
      session.journal = std::move(journal).value();
      // The create record carries everything replay needs to rebuild an
      // identical engine: dataset, resolved TTL, resolved config.
      Status created = session.journal->Append(MakeCreateRecord(
          dataset, static_cast<double>(session.ttl.count()), config));
      if (!created.ok()) {
        // Discard justified: the create is failing anyway; a leftover
        // empty segment is cleaned up by the next boot's scan.
        (void)session.journal->EraseFiles();
        session.journal.reset();
      }
      return created;
    };
  }

  Result<std::shared_ptr<ServerSession>> session =
      sessions_.Create(dataset, it->second, config, ttl_ms, setup);
  if (!session.ok()) {
    if (session.status().code() == StatusCode::kFailedPrecondition) {
      return CapacityResponse(session.status().message(),
                              options_.http.retry_after_seconds);
    }
    if (session.status().code() == StatusCode::kIoError) {
      return UnavailableResponse(
          "cannot persist session journal: " + session.status().message(),
          options_.http.retry_after_seconds);
    }
    return ErrorResponse(400, session.status().message());
  }

  JsonValue out = JsonValue::Object();
  out.Set("session_id", JsonValue::Str(session.value()->id));
  out.Set("dataset", JsonValue::Str(dataset));
  out.Set("ttl_ms", JsonValue::Number(
                        static_cast<double>(session.value()->ttl.count())));
  out.Set("num_records",
          JsonValue::Number(
              static_cast<double>(session.value()->db->num_records())));
  return HttpResponse::Json(201, out.Dump());
}

HttpResponse SubdexServer::HandleStep(const std::string& id,
                                      const HttpRequest& request,
                                      const CancellationToken& disconnect) {
  Result<JsonValue> parsed = ParseBodyObject(request);
  if (!parsed.ok()) return ErrorResponse(400, parsed.status().message());
  const JsonValue& body = parsed.value();

  SessionLease lease = sessions_.Acquire(id);
  if (!lease) {
    return ErrorResponse(404, "unknown or expired session '" + id + "'");
  }
  if (lease->read_only.load(std::memory_order_acquire)) {
    return UnavailableResponse(
        "session '" + id + "' is read-only: its journal failed",
        options_.http.retry_after_seconds);
  }
  const SubjectiveDatabase& db = *lease->db;

  // Mutations serialize per session: journal order must equal
  // engine-commit order or replay could not reproduce the digest chain.
  MutexLock order(lease->order_mu);

  GroupSelection selection;
  if (const JsonValue* reco = body.Find("recommendation"); reco != nullptr) {
    if (body.Find("reviewers") != nullptr || body.Find("items") != nullptr) {
      return ErrorResponse(
          400, "'recommendation' and explicit queries are mutually exclusive");
    }
    Result<size_t> reco_index = WireIndex(*reco, "recommendation");
    if (!reco_index.ok()) {
      return ErrorResponse(400, reco_index.status().message());
    }
    MutexLock lock(lease->mu);
    if (!lease->has_last_step) {
      return ErrorResponse(
          400, "no previous step to take a recommendation from");
    }
    size_t index = reco_index.value();
    if (index >= lease->last_step.recommendations.size()) {
      return ErrorResponse(
          400, "recommendation index " + std::to_string(index) +
                   " out of range (last step offered " +
                   std::to_string(lease->last_step.recommendations.size()) +
                   ")");
    }
    selection = lease->last_step.recommendations[index].operation.target;
  } else {
    // Read-only parse: the dataset's dictionaries are shared across every
    // session, so serving must never intern unseen values into them.
    for (const auto& [key, side] :
         {std::pair<const char*, Side>{"reviewers", Side::kReviewer},
          std::pair<const char*, Side>{"items", Side::kItem}}) {
      const JsonValue* v = body.Find(key);
      if (v == nullptr) continue;
      if (!v->is_string()) {
        return ErrorResponse(400, std::string("'") + key +
                                      "' must be a query string");
      }
      Result<Predicate> pred =
          ParsePredicateReadOnly(db.table(side), v->str());
      if (!pred.ok()) {
        return ErrorResponse(400, std::string("bad '") + key +
                                      "' query: " + pred.status().message());
      }
      (side == Side::kReviewer ? selection.reviewer_pred
                               : selection.item_pred) =
          std::move(pred).value();
    }
  }

  StepOptions options;
  options.token = disconnect;
  if (const JsonValue* v = body.Find("with_recommendations"); v != nullptr) {
    if (!v->is_bool()) {
      return ErrorResponse(400, "'with_recommendations' must be a boolean");
    }
    options.with_recommendations = v->bool_value();
  }
  double deadline_ms = 0;
  if (Status status = WireMsField(body, "deadline_ms", &deadline_ms,
                                  WireSign::kPositive);
      !status.ok()) {
    return ErrorResponse(400, status.message());
  }
  if (deadline_ms > 0) options.deadline = Deadline::FromNowMs(deadline_ms);

  StepResult result = lease->engine->ExecuteStep(selection, options);
  ServerMetrics::Get().steps.Increment();
  lease->steps_executed.fetch_add(1, std::memory_order_relaxed);

  if (!result.cancelled && lease->journal != nullptr) {
    Status journaled = lease->journal->Append(MakeStepRecord(
        PredicateToQuery(db.table(Side::kReviewer),
                         result.selection.reviewer_pred),
        PredicateToQuery(db.table(Side::kItem), result.selection.item_pred),
        options.with_recommendations, result.degraded, result.digest));
    if (!journaled.ok()) {
      // The step ran but its durability record did not land. Answer 503 —
      // not-committed — so the client never treats unjournaled state as
      // durable, and latch the session read-only: one torn append means
      // anything written after it would sit behind a tear the reader must
      // treat as corruption.
      lease->read_only.store(true, std::memory_order_release);
      return UnavailableResponse("step executed but could not be journaled (" +
                                     journaled.message() +
                                     "); session is now read-only",
                                 options_.http.retry_after_seconds);
    }
  }

  JsonValue out = RenderStepResult(id, db, result);
  if (!result.cancelled) {
    out.Set("digest", JsonValue::Str(DigestToHex(result.digest)));
    // A cancelled step produced nothing the client saw; keep the previous
    // step so its recommendation indexes stay valid.
    MutexLock lock(lease->mu);
    lease->digests.push_back(result.digest);
    lease->last_step = std::move(result);
    lease->has_last_step = true;
  }
  return HttpResponse::Json(200, out.Dump());
}

HttpResponse SubdexServer::HandleReset(const std::string& id) {
  SessionLease lease = sessions_.Acquire(id);
  if (!lease) {
    return ErrorResponse(404, "unknown or expired session '" + id + "'");
  }
  if (lease->read_only.load(std::memory_order_acquire)) {
    return UnavailableResponse(
        "session '" + id + "' is read-only: its journal failed",
        options_.http.retry_after_seconds);
  }
  MutexLock order(lease->order_mu);
  if (lease->journal != nullptr) {
    // Journal-then-apply: ResetHistory cannot fail, so an acked reset is
    // always both durable and applied.
    Status journaled = lease->journal->Append(MakeResetRecord());
    if (!journaled.ok()) {
      lease->read_only.store(true, std::memory_order_release);
      return UnavailableResponse(
          "reset could not be journaled (" + journaled.message() +
              "); session is now read-only",
          options_.http.retry_after_seconds);
    }
  }
  lease->engine->ResetHistory();
  {
    MutexLock lock(lease->mu);
    lease->has_last_step = false;
    lease->last_step = StepResult();
    lease->digests.clear();
  }
  JsonValue out = JsonValue::Object();
  out.Set("session_id", JsonValue::Str(id));
  out.Set("reset", JsonValue::Bool(true));
  return HttpResponse::Json(200, out.Dump());
}

HttpResponse SubdexServer::HandleGetSession(const std::string& id) {
  SessionLease lease = sessions_.Acquire(id);
  if (!lease) {
    return ErrorResponse(404, "unknown or expired session '" + id + "'");
  }
  JsonValue out = JsonValue::Object();
  out.Set("session_id", JsonValue::Str(id));
  out.Set("dataset", JsonValue::Str(lease->dataset));
  out.Set("ttl_ms",
          JsonValue::Number(static_cast<double>(lease->ttl.count())));
  out.Set("steps_executed",
          JsonValue::Number(static_cast<double>(
              lease->steps_executed.load(std::memory_order_relaxed))));
  out.Set("journaled", JsonValue::Bool(lease->journal != nullptr));
  out.Set("read_only", JsonValue::Bool(
                           lease->read_only.load(std::memory_order_acquire)));
  out.Set("recovered", JsonValue::Bool(lease->recovered));
  JsonValue digests = JsonValue::Array();
  {
    MutexLock lock(lease->mu);
    for (uint64_t digest : lease->digests) {
      digests.Append(JsonValue::Str(DigestToHex(digest)));
    }
  }
  out.Set("digests", std::move(digests));
  return HttpResponse::Json(200, out.Dump());
}

HttpResponse SubdexServer::HandleDelete(const std::string& id) {
  SessionLease lease = sessions_.Acquire(id);
  if (!lease) {
    return ErrorResponse(404, "unknown or expired session '" + id + "'");
  }
  {
    // Wait out any in-flight mutation so the tombstone lands last.
    MutexLock order(lease->order_mu);
    if (lease->journal != nullptr) {
      // Best-effort: the files are unlinked below anyway. The tombstone
      // only matters if the process dies between Remove and the unlink —
      // then the next boot finishes the erase instead of resurrecting.
      Status tombstone = lease->journal->Append(MakeDeleteRecord());
      // Discard justified: a failed tombstone degrades crash-DELETE
      // atomicity to at-least-once erase, which EraseFiles covers.
      (void)tombstone;
    }
  }
  if (!sessions_.Remove(id)) {
    // A concurrent DELETE won the race; it owns the cleanup.
    return ErrorResponse(404, "unknown or expired session '" + id + "'");
  }
  lease->DiscardDurability();
  JsonValue out = JsonValue::Object();
  out.Set("session_id", JsonValue::Str(id));
  out.Set("deleted", JsonValue::Bool(true));
  return HttpResponse::Json(200, out.Dump());
}

HttpResponse SubdexServer::HandleMetrics() {
  return HttpResponse::Text(
      200, MetricsRegistry::Global().Snapshot().ToPrometheusText());
}

HttpResponse SubdexServer::HandleHealthz() {
  JsonValue out = JsonValue::Object();
  out.Set("status", JsonValue::Str("ok"));
  out.Set("sessions",
          JsonValue::Number(static_cast<double>(sessions_.ActiveCount())));
  JsonValue names = JsonValue::Array();
  for (const auto& [name, db] : datasets_) {
    // Discard justified: /healthz lists names only; sizes are on /metrics.
    (void)db;
    names.Append(JsonValue::Str(name));
  }
  out.Set("datasets", std::move(names));
  if (!divergent_.empty()) {
    out.Set("divergent_sessions",
            JsonValue::Number(static_cast<double>(divergent_.size())));
  }
  return HttpResponse::Json(200, out.Dump());
}

Status SubdexServer::RecoverSessions() {
  std::error_code ec;
  std::filesystem::create_directories(options_.journal.dir, ec);
  if (ec) {
    return Status::IoError("cannot create journal dir '" +
                           options_.journal.dir + "': " + ec.message());
  }
  Result<std::vector<SessionJournalReplay>> scanned =
      ScanJournalDir(options_.journal);
  if (!scanned.ok()) return scanned.status();
  for (SessionJournalReplay& replay : scanned.value()) {
    if (replay.deleted) {
      // A crash between the DELETE tombstone and the unlink: finish it.
      // Discard justified: a failed unlink just retries next boot.
      (void)SessionJournal::Erase(options_.journal, replay.session_id);
      continue;
    }
    RecoverOne(std::move(replay));
  }
  return Status::Ok();
}

void SubdexServer::MarkDivergent(const std::string& id,
                                 const std::string& reason) {
  // Discard justified: the session may or may not have been restored by
  // the time divergence is detected; either way it must not be served.
  (void)sessions_.Remove(id);
  divergent_.emplace(id, reason);
  recovery_.sessions_divergent++;
  ServerMetrics::Get().divergent.Increment();
}

void SubdexServer::RecoverOne(SessionJournalReplay replay) {
  const std::string& id = replay.session_id;
  if (replay.torn_tail) recovery_.torn_tails++;
  if (!replay.status.ok()) {
    return MarkDivergent(id, replay.status.message());
  }
  if (replay.records.empty()) {
    // Crash before the create record was acked: nothing durable existed,
    // so there is no session to resurrect — just drop the empty shell.
    // Discard justified: a failed unlink retries next boot.
    (void)SessionJournal::Erase(options_.journal, id);
    return;
  }

  const JsonValue& create = replay.records.front();
  const JsonValue* type = create.Find("type");
  if (type == nullptr || !type->is_string() || type->str() != "create") {
    return MarkDivergent(id, "first journal record is not a create");
  }
  const JsonValue* dataset = create.Find("dataset");
  if (dataset == nullptr || !dataset->is_string()) {
    return MarkDivergent(id, "create record has no dataset");
  }
  auto it = datasets_.find(dataset->str());
  if (it == datasets_.end()) {
    return MarkDivergent(id, "dataset '" + dataset->str() +
                                 "' is no longer registered");
  }
  double ttl_ms = 0;
  // Discard justified: journal replay is lenient about fields the create
  // handler would have rejected — a malformed ttl_ms in an old journal
  // keeps the default instead of failing recovery of the whole session.
  (void)WireMsField(create, "ttl_ms", &ttl_ms);
  EngineConfig config = options_.engine;
  if (const JsonValue* knobs = create.Find("config");
      knobs != nullptr && knobs->is_object()) {
    Status applied = ApplyConfigOverrides(
        *knobs, options_.max_threads_per_session, &config);
    if (!applied.ok()) {
      return MarkDivergent(id, "journaled config rejected: " +
                                   applied.message());
    }
  }

  Result<std::shared_ptr<ServerSession>> restored =
      sessions_.Restore(id, dataset->str(), it->second, config, ttl_ms);
  if (!restored.ok()) return MarkDivergent(id, restored.status().message());
  std::shared_ptr<ServerSession> session = std::move(restored).value();

  for (size_t i = 1; i < replay.records.size(); ++i) {
    const JsonValue& record = replay.records[i];
    // The scan validated every record has a string "type".
    const std::string& kind = record.Find("type")->str();
    if (kind == "reset") {
      session->engine->ResetHistory();
      MutexLock lock(session->mu);
      session->has_last_step = false;
      session->last_step = StepResult();
      session->digests.clear();
      continue;
    }
    if (kind != "step") {
      return MarkDivergent(id, "unexpected '" + kind + "' record at index " +
                                   std::to_string(i));
    }
    Status stepped = ReplayStep(*session, record);
    if (!stepped.ok()) return MarkDivergent(id, stepped.message());
  }

  // Continue the journal where it left off (Resume truncates any torn
  // tail). A session that replayed fine but cannot append again is still
  // worth serving — read-only.
  Result<std::unique_ptr<SessionJournal>> journal =
      SessionJournal::Resume(options_.journal, replay);
  if (journal.ok()) {
    session->journal = std::move(journal).value();
  } else {
    session->read_only.store(true, std::memory_order_release);
  }
  recovery_.sessions_recovered++;
  ServerMetrics::Get().recovered.Increment();
}

Status SubdexServer::ReplayStep(ServerSession& session,
                                const JsonValue& record) {
  Result<JournaledStep> parsed = ParseStepRecord(*session.db, record);
  if (!parsed.ok()) return parsed.status();
  const JournaledStep& step = parsed.value();

  // Replay runs without a cancellation token or deadline, and cannot know
  // how far a degraded step got live. A step whose deadline expired before
  // it began took the engine's early-out path, which commits nothing, so
  // that path is tried first: it commits nothing here either, and a digest
  // match shows it is what ran. Any other step runs to completion, which
  // is why a degraded step is exempt from digest verification.
  StepOptions options;
  options.with_recommendations = step.with_recommendations;
  StepResult result;
  if (step.degraded) {
    StepOptions expired = options;
    expired.deadline = Deadline::Expired();
    result = session.engine->ExecuteStep(step.selection, expired);
  }
  if (!step.degraded || result.digest != step.digest) {
    result = session.engine->ExecuteStep(step.selection, options);
  }
  if (!step.degraded && result.digest != step.digest) {
    return Status::IoError("digest mismatch: journal has " +
                           DigestToHex(step.digest) + ", replay produced " +
                           DigestToHex(result.digest));
  }

  {
    MutexLock lock(session.mu);
    // The chain keeps the *journaled* digest — the one the client was
    // acked with — even for degraded steps where replay ran further.
    session.digests.push_back(step.digest);
    session.last_step = std::move(result);
    session.has_last_step = true;
  }
  session.steps_executed.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace subdex
