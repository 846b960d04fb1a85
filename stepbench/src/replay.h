#ifndef STEPBENCH_REPLAY_H_
#define STEPBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/group_cache.h"
#include "engine/rm_pipeline.h"
#include "engine/sde_engine.h"
#include "server/session_journal.h"

namespace stepbench {

/// Per-layer totals of the replayed steps of a run. Times are summed over
/// steps; the per-step metrics divide by `steps`.
struct LayerTotals {
  size_t steps = 0;
  // subjective: candidate enumeration and group materialization.
  double enumerate_ms = 0.0;
  double materialize_ms = 0.0;
  double wasted_materialize_ms = 0.0;
  size_t candidates_materialized = 0;
  size_t candidates_kept = 0;
  // pruning + engine/rm_generator, and core (GMM).
  double generate_ms = 0.0;
  double gmm_ms = 0.0;
  size_t record_updates = 0;
  size_t maps_considered = 0;
  size_t pruned_ci = 0;
  size_t pruned_mab = 0;
  size_t survivors = 0;
  // engine: display pipeline, fan-out, group cache, digest.
  double display_ms = 0.0;
  double fanout_ms = 0.0;
  size_t fanout_candidates = 0;
  size_t cache_hits = 0;
  size_t cache_lookups = 0;
  double digest_us = 0.0;
  // The replayed engine-level spans of each step (its own group's
  // materialization, the display pipeline and the fan-out), and the sum of
  // the engine's own per-step elapsed_ms for the same steps.
  double attributed_ms = 0.0;
  double engine_elapsed_ms = 0.0;
  // server: scratch-journal appends; storage: the query codec.
  std::vector<double> journal_append_ms;
  double codec_us = 0.0;

  void Merge(const LayerTotals& other);
  /// Share of the engine's elapsed time covered by the replayed spans.
  double AttributedShare() const;
};

/// Replays, from the benchmark's own code, the layer calls one session's
/// engine made for each step, and times each call. It mirrors the engine's
/// state — its group cache (same capacity, so the same hits), its
/// displayed-maps history and its explored selections — so every replayed
/// call does the work the engine did. Each replay is verified: the digest
/// of the replayed result must equal the digest of the step it replays,
/// otherwise the replay measured different work.
class StepReplayer {
 public:
  /// `config` must be the session engine's effective configuration
  /// (SdeEngine::config(), which fills in the database size).
  /// `journal_dir` receives the scratch journal; it uses `journal`'s fsync
  /// policy.
  StepReplayer(const subdex::SubjectiveDatabase* db,
               const subdex::EngineConfig& config,
               const subdex::JournalConfig& journal,
               const std::string& journal_id);

  StepReplayer(const StepReplayer&) = delete;
  StepReplayer& operator=(const StepReplayer&) = delete;

  /// Forgets the session state: a new session begins with an empty cache
  /// and history, like a fresh engine.
  void StartSession();

  /// Replays one step. `digest` is the step's digest as the engine (or the
  /// server) reported it; `engine_elapsed_ms` its elapsed_ms. When `trace`
  /// is non-null its counts are cross-checked against the replay's.
  /// Returns "" on success, else why the replay diverged.
  std::string Replay(const subdex::GroupSelection& selection,
                     bool with_recommendations, uint64_t digest,
                     double engine_elapsed_ms,
                     const subdex::StepTrace* trace);

  const LayerTotals& totals() const { return totals_; }

 private:
  const subdex::SubjectiveDatabase* db_;
  const subdex::EngineConfig config_;
  subdex::RmPipeline pipeline_;
  subdex::JournalConfig journal_config_;
  std::unique_ptr<subdex::RatingGroupCache> cache_;
  subdex::SeenMapsTracker seen_;
  std::vector<subdex::GroupSelection> explored_;
  std::unique_ptr<subdex::SessionJournal> journal_;
  LayerTotals totals_;
};

}  // namespace stepbench

#endif  // STEPBENCH_REPLAY_H_
