#ifndef METABLINK_SERVE_LINKING_SERVER_H_
#define METABLINK_SERVE_LINKING_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <unordered_map>
#include <vector>

#include "core/few_shot_linker.h"
#include "eval/evaluator.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "store/model_bundle.h"
#include "tensor/parameter.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::serve {

/// What a full bounded queue sheds (ServerOptions::max_queue).
enum class LoadShedPolicy {
  /// Refuse the arriving request with kUnavailable; queued requests keep
  /// their FIFO positions (oldest-first service, freshest rejected).
  kRejectNew,
  /// Complete the oldest queued request with kUnavailable and admit the
  /// arrival (freshest-first service under overload; the oldest request is
  /// the one whose caller has already waited longest and is most likely to
  /// have timed out upstream).
  kDropOldest,
};

/// Knobs for the micro-batching request scheduler. How stage 1 retrieves
/// is not among them: the served model's artifacts decide that (see
/// LinkingServer).
struct ServerOptions {
  /// A batch is full, and flushes at once, when this many requests are
  /// pending.
  std::size_t max_batch = 16;
  /// The longest a partial batch is held open for batch-mates: its oldest
  /// request's deadline. The scheduler closes it sooner, at deadline minus
  /// the smoothed inter-arrival gap, once no further arrival is expected
  /// before the deadline (see LinkingServer); until two requests have
  /// arrived there is no gap estimate and the hold runs to the deadline.
  std::uint64_t flush_deadline_us = 500;
  /// Stage-1 candidates per request (paper: 64).
  std::size_t retrieve_k = 64;
  /// LRU entries for repeated (mention, context) requests; 0 disables.
  /// Each entry holds the request's final ranked candidate list (all
  /// retrieve_k of them, before the top_k cut) and the rerank tier that
  /// produced it: a pure function of the request text and the frozen model
  /// version. A hit skips encode, retrieval and rerank, and only truncates
  /// to its own top_k and fills in titles, so it answers byte-identically
  /// to a cache-off server. Link answers a hit on the calling thread,
  /// without queueing it; only misses wait for a batch. The cache lives
  /// inside the model version it was filled against, so a SwapModel never
  /// serves an old version's answer.
  std::size_t cache_capacity = 1024;
  /// Serve re-ranking through the two-tier adaptive cascade (see
  /// model::CascadeConfig): confident requests exit on the retrieval
  /// margin, and the rest cross-encode only the ambiguous head. Off
  /// (the default) serves the exact full-rerank path of previous builds,
  /// byte for byte.
  bool use_cascade = false;
  /// Admission control: maximum depth of the pending-request queue. 0
  /// keeps the queue unbounded — every queued Link blocks until served and
  /// responses are byte-identical to pre-admission-control builds. With a
  /// bound, a Link arriving at a full queue is shed per `shed_policy`
  /// instead of queueing, so overload degrades into prompt kUnavailable
  /// errors with bounded latency for the admitted requests rather than
  /// into unbounded queue growth. An answer-cache hit never queues, so the
  /// bound never sheds or rejects it.
  std::size_t max_queue = 0;
  /// Which request a full queue sheds. Only read when max_queue > 0.
  LoadShedPolicy shed_policy = LoadShedPolicy::kRejectNew;
  /// Borrowed calibrated cascade policy (train::CalibrateCascade) for
  /// servers built over raw components or bundles without a "cascade"
  /// artifact; must outlive the server. A bundle's own artifact takes
  /// precedence. Null with use_cascade serves an uncalibrated default
  /// config (never exit, partial rerank of the top
  /// model::CascadeConfig{}.rerank_head_k).
  const model::CascadeModel* cascade = nullptr;
};

/// Monotonic serving counters, snapshotted by Stats(). Stage times are
/// cumulative wall-clock over all flushed batches.
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  /// Requests a batch completed. Link answers an answer-cache hit on the
  /// calling thread without a batch, so requests - batched_requests is the
  /// number of those hits, and batched_requests / batches the mean batch.
  std::uint64_t batched_requests = 0;
  /// Why each batch closed, by the path that closed it, so
  /// batches_full + batches_deadline + batches_early == batches — always.
  /// full: max_batch requests were pending. deadline: the hold reached the
  /// oldest request's deadline with no gap estimate (or a zero one), or
  /// the server was draining at shutdown. early: the hold ended at deadline
  /// minus the inter-arrival gap, no batch-mate being expected in time, or
  /// there was no hold at all because the batch ran on its caller's thread.
  std::uint64_t batches_full = 0;
  std::uint64_t batches_deadline = 0;
  std::uint64_t batches_early = 0;
  /// The early batches Link served on their caller's thread: a lone miss
  /// that found the server idle, with the next arrival expected after the
  /// hold would have ended (2 * gap > flush_deadline_us), ran as a batch of
  /// one with zero hold and no scheduler hand-off. A subset of
  /// batches_early, so batches - caller_batches is what the scheduler
  /// served.
  std::uint64_t caller_batches = 0;
  /// Cumulative hold: for each batch, the time from its oldest request's
  /// arrival to its close (zero for a caller batch). Measured inside the
  /// server, so it carries no client-side lag; hold_ms / batches is the
  /// mean hold.
  double hold_ms = 0.0;
  /// Answer-cache hits, whether Link answered them on the calling thread
  /// or a batch found the key filled while the request sat in the queue.
  /// A repeat of a miss in the same batch is a hit: it is answered from
  /// that miss's ranking, not computed again.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// In batches: answer-cache lookups, the answers of keys filled while
  /// their request was queued, and the mention encode of the misses. Hits
  /// answered in Link are not timed here.
  double encode_ms = 0.0;
  /// Stage-1 retrieval of the misses.
  double retrieve_ms = 0.0;
  /// Re-ranking of the misses and their answer-cache inserts; cache hits
  /// never re-rank, so this covers misses only.
  double rerank_ms = 0.0;
  /// Version of the currently published model (a bundle's model_version;
  /// 0 when serving in-process components).
  std::uint64_t model_version = 0;
  /// Successful SwapModel calls since construction.
  std::uint64_t swaps = 0;
  /// Per-tier rerank outcomes. Every request lands in exactly one tier, so
  /// rerank_exited + rerank_distilled + rerank_full == requests — always.
  /// With the cascade off every request counts as rerank_full; a request
  /// with no retrieved candidates counts as rerank_exited when the cascade
  /// is on (there is nothing to rerank). A cache hit counts the tier that
  /// produced its stored answer, so the counts equal a cache-off server's.
  std::uint64_t rerank_exited = 0;
  /// Always 0. The distilled middle tier is retired; a legacy artifact's
  /// distilled band is served, and counted, as rerank_full. The field
  /// stays because perfbench's serve.tier_distilled_frac reads it.
  std::uint64_t rerank_distilled = 0;
  std::uint64_t rerank_full = 0;
  /// Whether the currently published epoch's clustered scan reads PQ
  /// codes, as its bundle shipped it — so operators (and tests) can tell
  /// which path answered.
  bool pq_active = false;
  /// Admission control. Every Link call lands in exactly one of
  /// accepted/rejected, and every accepted request is eventually either
  /// completed (counted in `requests`: by a batch, or at once as an
  /// answer-cache hit in Link) or shed by kDropOldest — so the books
  /// always balance:
  ///   accepted == requests + shed + queue_depth + in_flight
  /// with the last two zero at quiescence. (Stats() reads the stats, queue
  /// and epoch mutexes one after another, so a snapshot taken mid-batch
  /// can be transiently skewed by one in-flight batch; once every
  /// outstanding Link has returned the identity above is exact.)
  std::uint64_t accepted = 0;
  /// Refused at admission (kRejectNew with a full queue). Never queued, so
  /// never counted in accepted/requests/shed.
  std::uint64_t rejected = 0;
  /// Admitted, then dropped from the queue by kDropOldest; completed with
  /// kUnavailable, never served by a batch.
  std::uint64_t shed = 0;
  /// Gauges, snapshotted at Stats() time.
  std::size_t queue_depth = 0;
  /// Deepest the queue has ever been (== the bound it would have needed).
  std::size_t queue_depth_high_water = 0;
  /// Requests popped into a batch and not yet completed.
  std::size_t in_flight = 0;
  /// How long the current queue front has been waiting (0 when empty).
  double oldest_wait_us = 0.0;
};

/// Production-style serving front-end for a fitted MetaBLINK system.
///
/// A request already in the current version's answer cache is answered
/// inside Link(), on the calling thread: a key lookup, a copy of the top_k
/// prefix and its titles, with no queueing and no scheduler handoff. So is
/// a lone miss when holding it could gain no batch-mate: no request is
/// queued (and its arrival shed none), no batch is being served, and the
/// gap estimate says the next arrival is due after the hold would end (a
/// request arriving at t is held until t + deadline - gap, its batch-mate
/// is expected at t + gap, so 2 * gap > flush_deadline_us). It runs
/// through the same ServeBatch as a batch of one, closed early with zero
/// hold (ServerStats::caller_batches), and whoever runs a batch owns the
/// serving scratch until it ends. Every other caller blocks in Link()
/// while a single scheduler thread coalesces their requests into
/// bounded-latency micro-batches; requests that arrive while any batch
/// runs queue for the scheduler, so bursts keep their batches. A batch is
/// flushed when it reaches `max_batch` requests, or when no batch-mate is
/// expected before the oldest request's deadline (`flush_deadline_us` after
/// it arrived), whichever comes first. Link() keeps a smoothed inter-arrival
/// gap (an EWMA of weight 1/8, RFC 6298's SRTT constant, over samples
/// clipped at `flush_deadline_us`), and the scheduler holds a partial batch
/// only until deadline - gap, re-reading the gap on every wake: past that
/// point the next expected arrival would land after the deadline. Before
/// two requests have queued there is no estimate and the hold runs to the
/// deadline. Under load batches still form, because requests queue while
/// the previous batch is served. Each flush answers from the answer cache
/// the requests whose key was filled while they queued, and runs the
/// tape-free pipeline over the rest — batched mention encode
/// (BiEncoder::EncodeMentionBagsInference), top-k retrieval against a
/// prebuilt domain index, and cross-encoder re-ranking
/// (CrossEncoder::ScoreCachedInference against a precomputed entity-side
/// cache) — so steady-state serving does no Graph construction, no
/// per-request index rebuild, no per-candidate entity tokenization, and no
/// allocations beyond request bookkeeping.
///
/// Everything a request touches (encoders, KB, index, rerank cache, answer
/// LRU) lives in one immutable-once-published ModelEpoch behind a
/// shared_ptr; only its answer LRU changes, under the epoch's own mutex.
/// SwapModel() loads a new artifact bundle off the request path and
/// publishes it atomically: in-flight batches and hit lookups finish on
/// the version they started with, later ones see the new one, and the old
/// version is destroyed when its last user completes. A failed swap
/// (missing or corrupt bundle) returns a Status and leaves the old
/// version serving.
///
/// Stage 1 takes one of two paths, fixed per model version by what its
/// artifacts ship: the clustered (IVF / IVF-PQ) probe of a bundle's
/// "clustered" artifact, else the exact fp32 scan of the index. The probe
/// scores its hits in fp32, so scores are identical to
/// eval::DomainSide::Link's (FewShotLinker::Link's) whenever the true
/// top-k is found.
class LinkingServer {
 public:
  /// Builds a server over raw components. `bi`, `cross`, and `kb` must
  /// outlive the server; `domain` must have entities in `kb`. The domain
  /// index is built here and served by the exhaustive fp32 scan.
  static util::Result<std::unique_ptr<LinkingServer>> Create(
      const model::BiEncoder* bi, const model::CrossEncoder* cross,
      const kb::KnowledgeBase* kb, const std::string& domain,
      ServerOptions options = {});

  /// Convenience: serves a fitted FewShotLinker's target domain. The linker
  /// must outlive the server.
  static util::Result<std::unique_ptr<LinkingServer>> FromLinker(
      const core::FewShotLinker& linker, ServerOptions options = {});

  /// Builds a server over a packaged artifact bundle (store::
  /// LoadModelBundle). The server owns everything it serves; nothing else
  /// needs to outlive it.
  static util::Result<std::unique_ptr<LinkingServer>> FromBundle(
      const std::string& bundle_dir, ServerOptions options = {});

  /// Drains pending requests (they complete normally), then stops the
  /// scheduler thread.
  ~LinkingServer();

  LinkingServer(const LinkingServer&) = delete;
  LinkingServer& operator=(const LinkingServer&) = delete;

  /// Links one mention: an answer-cache hit returns at once, a lone miss
  /// on an idle server is served on this thread, anything else blocks
  /// until its batch is served. Thread-safe: any number of
  /// threads may call concurrently; concurrency is what creates batching
  /// opportunities. Returns up to `top_k` predictions, best first. With a
  /// bounded queue (ServerOptions::max_queue) an overloaded server returns
  /// kUnavailable for a miss instead of blocking — either immediately
  /// (kRejectNew refused this call) or after a wait (kDropOldest shed this
  /// request to admit a newer one).
  util::Result<std::vector<core::LinkPrediction>> Link(
      const std::string& mention, const std::string& left_context,
      const std::string& right_context, std::size_t top_k = 5);

  /// Loads the bundle at `bundle_dir` and atomically publishes it as the
  /// new serving model. Thread-safe and callable while requests are in
  /// flight: every batch is served entirely by one model version, so each
  /// response reflects either the old or the new model, never a mix. On
  /// any failure the current model keeps serving and the error is
  /// returned.
  util::Status SwapModel(const std::string& bundle_dir);

  /// Snapshot of the cumulative serving counters.
  ServerStats Stats() const;

  const ServerOptions& options() const { return options_; }
  /// Entity count of the currently published model's index.
  std::size_t index_size() const;
  /// Parameter memory of the currently published model's encoders. A
  /// bundle-loaded epoch holds no gradient buffers, so `grads` is 0 there.
  tensor::ParameterStore::Bytes model_bytes() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::LinkingExample example;
    /// Answer-cache key; empty when the cache is off.
    std::string key;
    std::size_t top_k = 0;
    Clock::time_point enqueued;
    std::promise<util::Result<std::vector<core::LinkPrediction>>> promise;
  };

  /// Rerank tier that answered a request (ServerStats::rerank_*).
  enum class Tier : std::uint8_t { kExited, kFull };

  /// Why a batch closed (ServerStats::batches_*). kCaller is an early
  /// close served on its caller's thread (also ServerStats::caller_batches).
  enum class BatchClose : std::uint8_t { kFull, kDeadline, kEarly, kCaller };

  /// One answer-cache entry: the request's final ranking before the top_k
  /// cut, and the tier that produced it.
  struct CachedAnswer {
    std::vector<retrieval::ScoredEntity> ranked;
    Tier tier = Tier::kFull;
  };
  using LruList = std::list<std::pair<std::string, CachedAnswer>>;

  /// One published model version: every component a batch touches, owned
  /// (or borrowed, for Create/FromLinker) in one place. The entity side
  /// (the eval::DomainSide base: encoders, KB, index, rerank cache, entity
  /// positions) is immutable after publication; the answer LRU is read and
  /// refreshed by Link's hit path and the scheduler under `cache_mu`, and
  /// dies with its epoch — swap invalidation for free.
  struct ModelEpoch : eval::DomainSide {
    std::uint64_t version = 0;
    /// Set when the epoch came from a bundle; null when the base's
    /// component pointers borrow caller-owned objects.
    std::unique_ptr<store::ModelBundle> owned;
    /// The bundle's clustered artifact; built() exactly when the bundle
    /// shipped one, and then attached to this epoch's `index` member
    /// (re-attached after the bundle move).
    retrieval::ClusteredIndex clustered;
    /// Resolved cascade policy for this epoch: the bundle's "cascade"
    /// artifact when present, else ServerOptions::cascade, else the
    /// uncalibrated default. Read only when ServerOptions::use_cascade.
    model::CascadeModel cascade;
    // Answer LRU: key -> list node of (key, answer); guarded by cache_mu.
    std::mutex cache_mu;
    LruList lru;
    std::unordered_map<std::string, LruList::iterator> lru_map;

    /// Stage-1 top-k of one query: the clustered probe when the epoch has
    /// one, else the exact fp32 scan of `index`. The clustered scratch
    /// nests the exhaustive scan's, so one scratch type serves both.
    /// Allocation-free once `scratch` and `out` are warm.
    void Retrieve(const float* query, std::size_t k,
                  retrieval::ClusteredScratch* scratch,
                  std::vector<retrieval::ScoredEntity>* out) const;
  };

  /// Normalizes `options`; the pool starts here, before any epoch is
  /// built, so the first epoch's entity side can run on it.
  explicit LinkingServer(ServerOptions options);

  /// Publishes the first epoch and starts the scheduler thread.
  void Start(std::shared_ptr<ModelEpoch> epoch);
  /// Start for an epoch over caller-owned components (Create, FromLinker),
  /// which retrieve by the exhaustive scan: resolves ServerOptions::cascade
  /// first.
  void StartBorrowed(std::shared_ptr<ModelEpoch> epoch);

  /// Turns a loaded bundle into a servable epoch: adopts its prebuilt
  /// index and clustered artifact (which then answers stage 1 at its saved
  /// default_nprobe, through PQ codes exactly when it carries them), adopts
  /// the rerank cache or rebuilds it on `pool`, and derives the id -> row
  /// map.
  static util::Result<std::shared_ptr<ModelEpoch>> BuildEpochFromBundle(
      store::ModelBundle bundle, const ServerOptions& options,
      util::ThreadPool* pool);

  /// Installs the epoch's resolved cascade policy: `artifact` (a bundle's
  /// "cascade" section) wins over options.cascade wins over the default
  /// config.
  static void ResolveCascade(const ServerOptions& options,
                             const model::CascadeModel* artifact,
                             ModelEpoch* epoch);

  void SchedulerLoop();
  /// Serves one batch with the serving scratch, on the scheduler or (for
  /// kCaller) on the caller's thread, which set serving_ to own it; clears
  /// serving_ before it fulfils the promises. `hold` is the time from its
  /// oldest request's arrival to its close (ServerStats::hold_ms).
  void ServeBatch(std::vector<Request>* batch, BatchClose close,
                  Clock::duration hold);

  /// Current epoch snapshot (the only way requests reach model state).
  std::shared_ptr<ModelEpoch> CurrentEpoch() const;

  /// LRU lookup within `epoch`, under its cache_mu: on a hit, refreshes
  /// the entry to most recent, copies the head of its ranking that a
  /// top_k answer reads into `*head` and its tier into `*tier`, and
  /// returns true. Titling the head (core::MakePredictions) happens off
  /// the lock.
  static bool CacheLookup(ModelEpoch* epoch, const std::string& key,
                          std::size_t top_k,
                          std::vector<retrieval::ScoredEntity>* head,
                          Tier* tier);
  /// Stores a miss's final ranking and tier under epoch->cache_mu; a key
  /// already present is only refreshed.
  void CacheInsert(ModelEpoch* epoch, const std::string& key,
                   const std::vector<retrieval::ScoredEntity>& ranked,
                   Tier tier);
  /// Books one answer under the tier that produced it (the caller holds
  /// stats_mu_).
  static void CountTier(Tier tier, ServerStats* stats);

  ServerOptions options_;

  // Published model version; guarded by epoch_mu_. Batches snapshot the
  // shared_ptr and run lock-free against the snapshot.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<ModelEpoch> epoch_;
  std::uint64_t swaps_ = 0;

  // Request queue, guarded by mu_ (mutable: Stats() reads the depth and
  // admission counters).
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stop_ = false;
  // Set while a thread runs ServeBatch, by the scheduler when it pops a
  // batch or by Link when it serves a lone miss itself; cleared by
  // ServeBatch. The scheduler neither holds nor pops while it is set, and
  // does not exit at shutdown until it is clear.
  bool serving_ = false;
  // Admission bookkeeping, guarded by mu_ (updated on the Link path and at
  // batch pop/completion, which already hold it). in_flight_ is decremented
  // by ServeBatch *before* it fulfills the batch's promises, so a caller
  // that returns from Link and immediately reads Stats never sees its own
  // request still counted as in flight.
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t queue_high_water_ = 0;
  std::size_t in_flight_ = 0;
  // Arrival-rate estimate, guarded by mu_ (updated by Link at admission,
  // read there for the caller-run rule and by the scheduler on every
  // wake): the smoothed gap between admitted misses, valid once
  // arrivals_ >= 2. Cache hits never queue, never become batch-mates, and
  // so never feed it.
  std::uint64_t arrivals_ = 0;
  Clock::time_point last_arrival_;
  Clock::duration arrival_gap_{0};
  std::thread scheduler_;

  // Serving scratch, used only by the thread that set serving_ (the
  // scheduler, or a caller serving its own lone miss; model-version
  // independent). The per-chunk vectors back the pool-parallel
  // retrieve/rerank stages: chunk ids from ParallelForChunks are dense, so
  // chunk i owns element i.
  model::EncodeScratch encode_scratch_;
  // Tokens of the batch's misses: element j is miss_idx_[j]'s.
  std::vector<model::MentionText> miss_text_;
  // Mention embeddings of the batch's misses: row j is miss_idx_[j].
  tensor::Tensor encoded_;
  std::vector<std::vector<retrieval::ScoredEntity>> batch_hits_;
  std::vector<retrieval::ClusteredScratch> retrieval_scratch_;
  std::vector<eval::RescoreScratch> rerank_scratch_;
  std::vector<std::size_t> miss_idx_;
  // Answer-cache misses of the batch by key (viewing Request::key), and
  // each repeat of one as (request, first miss with its key).
  std::unordered_map<std::string_view, std::size_t> first_miss_;
  std::vector<std::pair<std::size_t, std::size_t>> repeats_;

  /// Worker pool for the batch-parallel retrieve and rerank stages and for
  /// building an epoch's entity side (Create/FromBundle before the
  /// scheduler starts, SwapModel's rerank-cache rebuild alongside it;
  /// ParallelFor calls from different threads each wait on their own
  /// tasks only).
  util::ThreadPool pool_;

  // Stats, guarded by stats_mu_ (written by the scheduler and by Link's
  // hit path, read anywhere).
  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace metablink::serve

#endif  // METABLINK_SERVE_LINKING_SERVER_H_
