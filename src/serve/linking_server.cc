#include "serve/linking_server.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "model/entity_side.h"
#include "util/logging.h"

namespace metablink::serve {

namespace {

/// Cache key for one (mention, context) request. Each field is prefixed
/// with its decimal byte length and a ':', so the key is collision-free
/// whatever bytes the fields hold: a separator byte inside one field can
/// never be mistaken for a field boundary.
std::string CacheKey(const std::string& mention, const std::string& left,
                     const std::string& right) {
  std::string key;
  key.reserve(mention.size() + left.size() + right.size() + 3 * 8);
  for (const std::string* field : {&mention, &left, &right}) {
    key += std::to_string(field->size());
    key += ':';
    key += *field;
  }
  return key;
}

}  // namespace

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::Create(
    const model::BiEncoder* bi, const model::CrossEncoder* cross,
    const kb::KnowledgeBase* kb, const std::string& domain,
    ServerOptions options) {
  if (bi == nullptr || cross == nullptr || kb == nullptr) {
    return util::Status::InvalidArgument("null component passed to server");
  }
  std::unique_ptr<LinkingServer> server(new LinkingServer(std::move(options)));
  // The entity side is built on the server's pool, before it serves.
  auto epoch = std::make_shared<ModelEpoch>();
  METABLINK_RETURN_IF_ERROR(
      epoch->Build(bi, cross, kb, domain, &server->pool_));
  server->StartBorrowed(std::move(epoch));
  return server;
}

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::FromLinker(
    const core::FewShotLinker& linker, ServerOptions options) {
  if (!linker.fitted()) {
    return util::Status::FailedPrecondition(
        "call FewShotLinker::Fit before serving it");
  }
  std::unique_ptr<LinkingServer> server(new LinkingServer(std::move(options)));
  // Fit already built this domain's side over these encoders and KB; the
  // epoch copies it rather than embedding every entity again.
  auto epoch = std::make_shared<ModelEpoch>();
  static_cast<eval::DomainSide&>(*epoch) = linker.side();
  server->StartBorrowed(std::move(epoch));
  return server;
}

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::FromBundle(
    const std::string& bundle_dir, ServerOptions options) {
  auto bundle = store::LoadModelBundle(bundle_dir);
  if (!bundle.ok()) return bundle.status();
  std::unique_ptr<LinkingServer> server(new LinkingServer(std::move(options)));
  auto epoch = BuildEpochFromBundle(std::move(*bundle), server->options_,
                                    &server->pool_);
  if (!epoch.ok()) return epoch.status();
  server->Start(*std::move(epoch));
  return server;
}

LinkingServer::LinkingServer(ServerOptions options)
    : options_(std::move(options)) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.retrieve_k = std::max<std::size_t>(1, options_.retrieve_k);
}

void LinkingServer::Start(std::shared_ptr<ModelEpoch> epoch) {
  epoch_ = std::move(epoch);
  scheduler_ = std::thread(&LinkingServer::SchedulerLoop, this);
}

void LinkingServer::StartBorrowed(std::shared_ptr<ModelEpoch> epoch) {
  ResolveCascade(options_, nullptr, epoch.get());
  Start(std::move(epoch));
}

LinkingServer::~LinkingServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

void LinkingServer::ResolveCascade(const ServerOptions& options,
                                   const model::CascadeModel* artifact,
                                   ModelEpoch* epoch) {
  if (artifact != nullptr) {
    epoch->cascade = *artifact;
  } else if (options.cascade != nullptr) {
    epoch->cascade = *options.cascade;
  }
  epoch->cascade.config.rerank_head_k =
      std::max<std::size_t>(1, epoch->cascade.config.rerank_head_k);
}

void LinkingServer::ModelEpoch::Retrieve(
    const float* query, std::size_t k, retrieval::ClusteredScratch* scratch,
    std::vector<retrieval::ScoredEntity>* out) const {
  if (clustered.built()) {
    clustered.TopKInto(query, k, /*nprobe=*/0, scratch, out);
  } else {
    index.TopKInto(query, k, &scratch->topk, out);
  }
}

util::Result<std::shared_ptr<LinkingServer::ModelEpoch>>
LinkingServer::BuildEpochFromBundle(store::ModelBundle bundle,
                                    const ServerOptions& options,
                                    util::ThreadPool* pool) {
  auto epoch = std::make_shared<ModelEpoch>();
  epoch->owned = std::make_unique<store::ModelBundle>(std::move(bundle));
  store::ModelBundle& b = *epoch->owned;
  epoch->version = b.model_version;
  epoch->domain = b.domain;
  epoch->bi = b.bi.get();
  epoch->cross = b.cross.get();
  epoch->kb = b.kb.get();
  epoch->index = std::move(b.index);
  if (!epoch->index.built()) {
    return util::Status::InvalidArgument("bundle index has no entities");
  }
  if (b.has_clustered) {
    // Moving the bundle into the epoch relocated the index the clustering
    // was attached to, so re-bind it to the epoch's own copy.
    epoch->clustered = std::move(b.clustered);
    METABLINK_RETURN_IF_ERROR(epoch->clustered.Attach(&epoch->index));
  }
  if (b.has_rerank_cache) {
    epoch->cross_cache = std::move(b.rerank_cache);
  } else {
    // Bundle shipped without the precomputed rerank artifact: rebuild it
    // from the KB in index-row order.
    model::BuildEntitySide(/*bi=*/nullptr, epoch->cross, *epoch->kb,
                           epoch->index.ids(), pool, /*embeddings=*/nullptr,
                           &epoch->cross_cache);
  }
  epoch->MapRows();
  ResolveCascade(options, b.has_cascade ? &b.cascade : nullptr, epoch.get());
  return epoch;
}

util::Status LinkingServer::SwapModel(const std::string& bundle_dir) {
  // All loading and validation happens off the publish lock; a concurrent
  // scheduler keeps serving the current version throughout.
  auto bundle = store::LoadModelBundle(bundle_dir);
  if (!bundle.ok()) return bundle.status();
  auto epoch = BuildEpochFromBundle(std::move(*bundle), options_, &pool_);
  if (!epoch.ok()) return epoch.status();
  // The publish is a pointer swap. The retired epoch is released after
  // the lock, so when no batch still holds it its destructor does not stall
  // every CurrentEpoch() on the request path.
  std::shared_ptr<ModelEpoch> retired = *std::move(epoch);
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_.swap(retired);
    ++swaps_;
  }
  return util::Status::OK();
}

std::shared_ptr<LinkingServer::ModelEpoch> LinkingServer::CurrentEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

util::Result<std::vector<core::LinkPrediction>> LinkingServer::Link(
    const std::string& mention, const std::string& left_context,
    const std::string& right_context, std::size_t top_k) {
  std::string key;
  if (options_.cache_capacity > 0) {
    key = CacheKey(mention, left_context, right_context);
    // A hit is answered here, on the caller's thread, by the version
    // current now. It never queues, so it bypasses the queue bound and
    // the arrival-gap estimate (it can never be a batch-mate), and it is
    // counted before it returns, so the ledger and the
    // completed-before-returned rule hold as for a batch.
    const std::shared_ptr<ModelEpoch> epoch = CurrentEpoch();
    std::vector<retrieval::ScoredEntity> head;
    Tier tier = Tier::kFull;
    if (CacheLookup(epoch.get(), key, top_k, &head, &tier)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) {
          return util::Status::FailedPrecondition("server is shutting down");
        }
        ++accepted_;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
        ++stats_.cache_hits;
        CountTier(tier, &stats_);
      }
      return core::MakePredictions(*epoch->kb, head, top_k);
    }
  }
  Request req;
  req.example.mention = mention;
  req.example.left_context = left_context;
  req.example.right_context = right_context;
  // example.domain is stamped by ServeBatch from the version that serves
  // the batch.
  req.key = std::move(key);
  req.top_k = top_k;
  auto future = req.promise.get_future();
  // Holds a drop-oldest victim so its promise is fulfilled off the lock.
  std::optional<Request> shed_victim;
  // Set when this miss is served on this thread instead of queueing.
  bool on_caller = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return util::Status::FailedPrecondition("server is shutting down");
    }
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      if (options_.shed_policy == LoadShedPolicy::kRejectNew) {
        ++rejected_;
        return util::Status::Unavailable(
            "request rejected: queue full (max_queue=" +
            std::to_string(options_.max_queue) + ")");
      }
      shed_victim.emplace(std::move(queue_.front()));
      queue_.pop_front();
      ++shed_;
    }
    // Stamped under mu_, so arrival times rise in queue order.
    req.enqueued = Clock::now();
    if (arrivals_ > 0) {
      // RFC 6298's SRTT update, gap += (sample - gap) / 8, seeded by the
      // first sample. A sample is clipped at the deadline, so one idle
      // spell cannot mask a later burst.
      const Clock::duration sample = std::min<Clock::duration>(
          req.enqueued - last_arrival_,
          std::chrono::microseconds(options_.flush_deadline_us));
      arrival_gap_ = arrivals_ == 1
                         ? sample
                         : arrival_gap_ + (sample - arrival_gap_) / 8;
    }
    last_arrival_ = req.enqueued;
    ++arrivals_;
    ++accepted_;
    // A lone miss on an idle server would be held from now until
    // deadline - gap, while its batch-mate is expected at now + gap: when
    // 2 * gap > deadline the hold ends first and buys nothing, so serve it
    // here as an early-closed batch of one, with no scheduler wake, no hold
    // and no hand-back. A drop-oldest shed above can leave the queue empty
    // (max_queue == 1); that arrival still queues, so its victim is
    // fulfilled below and a scheduler holding for the victim wakes to a
    // non-empty queue.
    on_caller =
        !shed_victim.has_value() && queue_.empty() && !serving_ &&
        arrivals_ >= 2 &&
        2 * arrival_gap_ >
            std::chrono::microseconds(options_.flush_deadline_us);
    if (on_caller) {
      serving_ = true;
      ++in_flight_;
    } else {
      queue_.push_back(std::move(req));
      queue_high_water_ = std::max(queue_high_water_, queue_.size());
      // Notify while still holding mu_: the destructor's shutdown drain
      // also takes mu_, so once it fulfills this request's promise no
      // further touch of queue_cv_ from this call is possible — destroying
      // the server with callers still blocked in Link stays well-defined.
      queue_cv_.notify_all();
    }
  }
  if (on_caller) {
    std::vector<Request> batch;
    batch.push_back(std::move(req));
    ServeBatch(&batch, BatchClose::kCaller, Clock::duration::zero());
    return future.get();
  }
  if (shed_victim.has_value()) {
    shed_victim->promise.set_value(util::Status::Unavailable(
        "request shed: dropped as oldest in a full queue (max_queue=" +
        std::to_string(options_.max_queue) + ")"));
  }
  return future.get();
}

void LinkingServer::SchedulerLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    // A caller serving its own miss owns the serving scratch: neither hold
    // nor pop until it is done, and at shutdown do not return (letting the
    // destructor free the scratch) while it runs.
    queue_cv_.wait(lock,
                   [&] { return !serving_ && (stop_ || !queue_.empty()); });
    if (queue_.empty()) return;  // stop_ with nothing left to drain
    // Let the batch fill while a batch-mate is still expected before the
    // oldest request's deadline: until deadline - gap, with the gap re-read
    // on every wake. Without an estimate the hold runs to the deadline. On
    // stop, flush immediately so pending requests still complete; that
    // drain counts as a deadline close.
    const Clock::time_point deadline =
        queue_.front().enqueued +
        std::chrono::microseconds(options_.flush_deadline_us);
    BatchClose close = BatchClose::kDeadline;
    while (!stop_) {
      if (queue_.size() >= options_.max_batch) {
        close = BatchClose::kFull;
        break;
      }
      const Clock::duration gap =
          arrivals_ >= 2 ? arrival_gap_ : Clock::duration::zero();
      if (queue_cv_.wait_until(lock, deadline - gap) ==
          std::cv_status::timeout) {
        close = gap > Clock::duration::zero() ? BatchClose::kEarly
                                              : BatchClose::kDeadline;
        break;
      }
    }
    const Clock::duration hold = Clock::now() - queue_.front().enqueued;
    std::vector<Request> batch;
    const std::size_t n = std::min(queue_.size(), options_.max_batch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ += n;
    serving_ = true;
    lock.unlock();
    ServeBatch(&batch, close, hold);
  }
}

void LinkingServer::ServeBatch(std::vector<Request>* batch, BatchClose close,
                               Clock::duration hold) {
  // One model version serves the whole batch: every stage below reads
  // through this snapshot, so a concurrent SwapModel can never produce a
  // response that mixes versions. The snapshot also keeps the old version
  // alive until its last in-flight batch completes.
  const std::shared_ptr<ModelEpoch> epoch = CurrentEpoch();
  const std::size_t m = batch->size();
  const bool use_cache = options_.cache_capacity > 0;
  // Outcomes are held back and promises fulfilled only after the stats
  // update below, so a caller that returns from Link() and immediately
  // reads Stats() always sees its own batch counted.
  std::vector<util::Result<std::vector<core::LinkPrediction>>> outcomes(
      m, util::Status::NotFound("no candidates retrieved"));
  // Tier taken by each request. Tier selection depends only on the
  // request's own retrieval result and the epoch's immutable cascade
  // config, and a hit replays the tier of the miss that filled its entry,
  // so assignments (and responses) are identical whatever the batch
  // composition, chunking or cache state — the counters summed from this
  // vector always total m.
  std::vector<Tier> tiers(m, Tier::kFull);

  // ---- Answer cache. Link already answered the hits it saw; this lookup
  // catches a key filled while its request sat in the queue. A hit's
  // answer is a pure function of the request text and this version, so it
  // skips every stage below: it is truncated to its own top_k and titled
  // here, its head copied into its own candidate slot. A repeat of an
  // earlier miss in this batch is a hit on the entry that miss fills: it
  // is answered from that miss's ranking after stage 3, not computed
  // twice (concurrent callers replaying one stream arrive in lockstep).
  const auto t0 = Clock::now();
  batch_hits_.resize(m);
  miss_idx_.clear();
  first_miss_.clear();
  repeats_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    Request& req = (*batch)[i];
    req.example.domain = epoch->domain;
    if (use_cache) {
      if (CacheLookup(epoch.get(), req.key, req.top_k, &batch_hits_[i],
                      &tiers[i])) {
        outcomes[i] =
            core::MakePredictions(*epoch->kb, batch_hits_[i], req.top_k);
        continue;
      }
      const auto [first, is_first] =
          first_miss_.try_emplace(std::string_view(req.key), i);
      if (!is_first) {
        repeats_.emplace_back(i, first->second);
        continue;
      }
    }
    miss_idx_.push_back(i);
  }
  const std::size_t misses = use_cache ? miss_idx_.size() : 0;
  const std::size_t hits = use_cache ? m - miss_idx_.size() : 0;

  // ---- Stage 1: batched mention encode (tape-free) of the misses. Each
  // miss is tokenized here once; its tokens serve stage 3 too.
  const std::size_t num_misses = miss_idx_.size();
  if (num_misses > 0) {
    if (encode_scratch_.bags.size() < num_misses) {
      encode_scratch_.bags.resize(num_misses);
    }
    if (miss_text_.size() < num_misses) miss_text_.resize(num_misses);
    for (std::size_t j = 0; j < num_misses; ++j) {
      model::TokenizeMention((*batch)[miss_idx_[j]].example, &miss_text_[j]);
      epoch->bi->featurizer().MentionBagInto(miss_text_[j],
                                             &encode_scratch_.bags[j]);
    }
    epoch->bi->EncodeMentionBagsInference(num_misses, &encode_scratch_,
                                          &encoded_);
  }

  // ---- Stage 2: top-k retrieval of each miss's embedding (row j of
  // encoded_) against the version's prebuilt domain index, parallel across
  // queries (each query's top-k is independent, so the parallel results
  // are identical to serial).
  const auto t1 = Clock::now();
  const std::size_t k = options_.retrieve_k;
  const std::size_t chunks = std::max<std::size_t>(1, pool_.num_threads());
  if (retrieval_scratch_.size() < chunks) retrieval_scratch_.resize(chunks);
  if (num_misses > 0) {
    pool_.ParallelForChunks(
        num_misses, 0,
        [this, &epoch, k](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            epoch->Retrieve(encoded_.row_data(j), k,
                            &retrieval_scratch_[chunk],
                            &batch_hits_[miss_idx_[j]]);
          }
        });
  }

  // ---- Stage 3: cross-encoder re-rank of the misses, parallel across
  // requests with per-chunk scratch. Each miss's candidate list is
  // re-ranked in place, whole, so the answer cache can store it before
  // the top_k cut.
  const auto t2 = Clock::now();
  if (rerank_scratch_.size() < chunks) rerank_scratch_.resize(chunks);
  const bool use_cascade = options_.use_cascade;
  // When both encoders hash one feature space, stage 1's mention bag is
  // the cross tower's too (as BuildEntitySide shares entity bags), so a
  // miss is featurized once; otherwise the cross featurizer hashes it.
  const bool share_bags = model::FeatureConfigsMatch(
      epoch->bi->config().features, epoch->cross->config().features);
  pool_.ParallelForChunks(
      num_misses, 0,
      [this, &epoch, batch, &outcomes, &tiers, use_cascade, share_bags](
          std::size_t chunk, std::size_t begin, std::size_t end) {
        eval::RescoreScratch& scratch = rerank_scratch_[chunk];
        const model::CascadeConfig& config = epoch->cascade.config;
        for (std::size_t j = begin; j < end; ++j) {
          const std::size_t i = miss_idx_[j];
          Request& req = (*batch)[i];
          std::vector<retrieval::ScoredEntity>& cands = batch_hits_[i];
          const model::MentionText& text = miss_text_[j];
          // The miss's bag in the cross feature space: stage 1's when the
          // encoders share one, else hashed here once by the cross
          // featurizer.
          const auto cross_bag = [&]() -> const std::vector<std::uint32_t>& {
            if (share_bags) return encode_scratch_.bags[j];
            epoch->cross->featurizer().MentionBagInto(
                text, &scratch.cross.mention_bag);
            return scratch.cross.mention_bag;
          };
          if (cands.empty()) {
            // Nothing to rerank: under the cascade this counts as an
            // exit; off-cascade it stays a (vacuous) full rerank.
            if (use_cascade) tiers[i] = Tier::kExited;
            continue;  // keep the NotFound outcome
          }
          if (!use_cascade) {
            // The pre-cascade serving path, byte for byte: cross-encode
            // and re-sort the entire candidate list.
            epoch->Rescore(req.example, text, cross_bag(), cands.data(),
                           cands.size(), &scratch);
            eval::SortBestFirst(cands.begin(), cands.end());
          } else {
            const float margin =
                cands.size() > 1
                    ? cands[0].score - cands[1].score
                    : std::numeric_limits<float>::infinity();
            if (margin >= config.margin_tau) {
              // Tier 1 — early exit: retrieval is confident enough that
              // calibration proved rerank would not change the answer.
              tiers[i] = Tier::kExited;
            } else {
              // Ambiguous head (eval::HeadSize, the rule calibration
              // used). The tail keeps its retrieval order and scores.
              const std::size_t head = eval::HeadSize(
                  cands, config.band_epsilon, config.rerank_head_k);
              // Tier 2 — full cross-encoder, but only over the head.
              tiers[i] = Tier::kFull;
              epoch->Rescore(req.example, text, cross_bag(), cands.data(),
                             head, &scratch);
              eval::SortBestFirst(cands.begin(), cands.begin() + head);
            }
          }
          outcomes[i] = core::MakePredictions(*epoch->kb, cands, req.top_k);
        }
      });
  // Repeats take their first miss's ranking and tier.
  for (const auto& [i, first] : repeats_) {
    tiers[i] = tiers[first];
    outcomes[i] = core::MakePredictions(*epoch->kb, batch_hits_[first],
                                        (*batch)[i].top_k);
  }
  // Fill the answer cache after every lookup of this batch, in miss
  // order.
  if (use_cache) {
    for (std::size_t i : miss_idx_) {
      CacheInsert(epoch.get(), (*batch)[i].key, batch_hits_[i], tiers[i]);
    }
  }
  const auto t3 = Clock::now();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests += m;
    stats_.batches += 1;
    stats_.batched_requests += m;
    switch (close) {
      case BatchClose::kFull: ++stats_.batches_full; break;
      case BatchClose::kDeadline: ++stats_.batches_deadline; break;
      case BatchClose::kEarly: ++stats_.batches_early; break;
      case BatchClose::kCaller:
        ++stats_.batches_early;
        ++stats_.caller_batches;
        break;
    }
    stats_.hold_ms += std::chrono::duration<double, std::milli>(hold).count();
    stats_.cache_hits += hits;
    stats_.cache_misses += misses;
    stats_.encode_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats_.retrieve_ms +=
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    stats_.rerank_ms +=
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    for (const Tier tier : tiers) CountTier(tier, &stats_);
  }
  {
    // Completed-before-fulfilled: once any promise below is visible to its
    // caller, this batch is already out of the in-flight gauge and counted
    // in stats_.requests, and the serving scratch is free, so a serial
    // caller's next miss can take the caller-run path. Nothing below
    // touches a member. The notify wakes a scheduler waiting out a caller
    // batch; it is sent under mu_ because the destructor's drain takes mu_
    // too, so the server cannot be gone before it.
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= m;
    serving_ = false;
    queue_cv_.notify_all();
  }
  for (std::size_t i = 0; i < m; ++i) {
    (*batch)[i].promise.set_value(std::move(outcomes[i]));
  }
}

bool LinkingServer::CacheLookup(ModelEpoch* epoch, const std::string& key,
                                std::size_t top_k,
                                std::vector<retrieval::ScoredEntity>* head,
                                Tier* tier) {
  std::lock_guard<std::mutex> lock(epoch->cache_mu);
  auto it = epoch->lru_map.find(key);
  if (it == epoch->lru_map.end()) return false;
  // Refresh recency.
  epoch->lru.splice(epoch->lru.begin(), epoch->lru, it->second);
  const CachedAnswer& answer = it->second->second;
  // At least one entry, so a top_k of 0 still answers an empty list rather
  // than MakePredictions' NotFound for an empty ranking.
  const std::size_t n =
      std::min(answer.ranked.size(), std::max<std::size_t>(top_k, 1));
  head->assign(answer.ranked.begin(), answer.ranked.begin() + n);
  *tier = answer.tier;
  return true;
}

void LinkingServer::CacheInsert(
    ModelEpoch* epoch, const std::string& key,
    const std::vector<retrieval::ScoredEntity>& ranked, Tier tier) {
  std::lock_guard<std::mutex> lock(epoch->cache_mu);
  auto it = epoch->lru_map.find(key);
  if (it != epoch->lru_map.end()) {
    // Already present: refresh, keep the existing entry, so the map and
    // the list stay one-to-one.
    epoch->lru.splice(epoch->lru.begin(), epoch->lru, it->second);
    return;
  }
  epoch->lru.emplace_front(key, CachedAnswer{ranked, tier});
  epoch->lru_map[key] = epoch->lru.begin();
  while (epoch->lru.size() > options_.cache_capacity) {
    epoch->lru_map.erase(epoch->lru.back().first);
    epoch->lru.pop_back();
  }
}

void LinkingServer::CountTier(Tier tier, ServerStats* stats) {
  switch (tier) {
    case Tier::kExited: ++stats->rerank_exited; break;
    case Tier::kFull: ++stats->rerank_full; break;
  }
}

ServerStats LinkingServer::Stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.accepted = accepted_;
    out.rejected = rejected_;
    out.shed = shed_;
    out.queue_depth = queue_.size();
    out.queue_depth_high_water = queue_high_water_;
    out.in_flight = in_flight_;
    out.oldest_wait_us =
        queue_.empty()
            ? 0.0
            : std::chrono::duration<double, std::micro>(
                  Clock::now() - queue_.front().enqueued)
                  .count();
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    out.model_version = epoch_->version;
    out.swaps = swaps_;
    out.pq_active = epoch_->clustered.built() && epoch_->clustered.pq_built();
  }
  return out;
}

std::size_t LinkingServer::index_size() const {
  return CurrentEpoch()->index.size();
}

tensor::ParameterStore::Bytes LinkingServer::model_bytes() const {
  const std::shared_ptr<ModelEpoch> epoch = CurrentEpoch();
  tensor::ParameterStore::Bytes total = epoch->bi->params()->MemoryBytes();
  if (epoch->cross != nullptr) {
    const auto cross = epoch->cross->params()->MemoryBytes();
    total.values += cross.values;
    total.grads += cross.grads;
  }
  return total;
}

}  // namespace metablink::serve
