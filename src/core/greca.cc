#include "core/greca.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "preference/preference_model.h"

namespace greca {

namespace {

/// Mutable execution state of one GRECA run.
class GrecaRun {
 public:
  GrecaRun(const GroupProblem& problem, const GrecaConfig& config,
           GrecaStats* stats, GrecaWorkspace& ws)
      : problem_(problem),
        config_(config),
        stats_(stats),
        pref_pos_(ws.pref_pos),
        pref_bound_(ws.pref_bound),
        period_pos_(ws.period_pos),
        period_bound_(ws.period_bound),
        static_val_(ws.static_val),
        static_seen_(ws.static_seen),
        period_val_(ws.period_val),
        period_seen_(ws.period_seen),
        apref_val_(ws.apref_val),
        apref_seen_(ws.apref_seen),
        item_state_(ws.item_state),
        active_items_(ws.active_items),
        ag_val_(ws.ag_val),
        ag_seen_(ws.ag_seen),
        lb_epoch_of_(ws.lb_epoch),
        pair_lb_(ws.pair_lb),
        pair_ub_(ws.pair_ub),
        pair_lb_dense_(ws.pair_lb_dense),
        pair_ub_dense_(ws.pair_ub_dense),
        aff_p_iv_(ws.aff_p_iv),
        apref_lb_(ws.apref_lb),
        apref_ub_(ws.apref_ub),
        pref_lb_(ws.pref_lb),
        pref_ub_(ws.pref_ub),
        pref_iv_(ws.pref_iv),
        item_lb_(ws.item_lb),
        item_ub_(ws.item_ub),
        scratch_lbs_(ws.scratch_lbs),
        g_(problem.group_size()),
        num_pairs_(problem.num_pairs()),
        num_periods_(problem.num_periods()),
        m_(problem.num_items()),
        seen_words_((g_ + 63) / 64),
        pair_norm_(g_ > 1 ? 1.0 / static_cast<double>(g_ - 1) : 0.0),
        ag_floor_(1.0 - problem.consensus().disagreement_scale),
        uses_agreement_(problem.uses_agreement_list()),
        monotone_(problem.consensus().disagreement !=
                  DisagreementKind::kVariance) {
    pref_pos_.assign(g_, 0);
    pref_bound_.assign(g_, 1.0);
    static_pos_ = 0;
    static_bound_ = 1.0;
    period_pos_.assign(num_periods_, 0);
    period_bound_.assign(num_periods_, 1.0);

    static_val_.assign(num_pairs_, 0.0);
    static_seen_.assign(num_pairs_, 0);
    period_val_.assign(num_periods_ * num_pairs_, 0.0);
    period_seen_.assign(num_periods_ * num_pairs_, 0);

    apref_val_.assign(m_ * g_, 0.0);
    apref_seen_.assign(m_ * seen_words_, 0u);
    item_state_.assign(m_, kUnseen);
    active_items_.clear();

    if (uses_agreement_) {
      ag_val_.assign(m_, 0.0);
      ag_seen_.assign(m_, 0);
    }

    // Epoch 0 marks a stale lower bound; the first pair refresh opens
    // epoch 1.
    lb_epoch_of_.assign(m_, 0u);

    // Scratch buffers reused across bound computations.
    pair_lb_.resize(num_pairs_);
    pair_ub_.resize(num_pairs_);
    pair_lb_dense_.resize(g_ * g_);
    pair_ub_dense_.resize(g_ * g_);
    aff_p_iv_.resize(num_periods_);
    apref_lb_.resize(g_);
    apref_ub_.resize(g_);
    pref_lb_.resize(g_);
    pref_ub_.resize(g_);
    pref_iv_.resize(g_);
  }

  TopKResult Run() {
    TopKResult result;
    result.total_entries = problem_.TotalEntries();

    bool stopped = false;
    while (!stopped && !AllExhausted()) {
      DoRound(result.accesses);
      ++result.rounds;
      stopped = CheckStop();
    }
    result.early_terminated = stopped && !AllExhausted();
    result.items = ExtractTopK();
    return result;
  }

 private:
  static constexpr std::uint8_t kUnseen = 0;
  static constexpr std::uint8_t kActive = 1;
  static constexpr std::uint8_t kPruned = 2;

  // List cursors are opaque to us (see list_view.h); SkipToLive positions
  // them past dead entries (uncounted), so exhaustion and reads see only
  // live entries — identical accounting to a dense list over the live keys.
  bool AllExhausted() {
    for (std::size_t u = 0; u < g_; ++u) {
      if (problem_.preference_lists()[u].SkipToLive(pref_pos_[u])) {
        return false;
      }
    }
    if (problem_.static_affinity().SkipToLive(static_pos_)) return false;
    for (std::size_t t = 0; t < num_periods_; ++t) {
      if (problem_.period_affinity()[t].SkipToLive(period_pos_[t])) {
        return false;
      }
    }
    return !uses_agreement_ || !problem_.agreement_list().SkipToLive(ag_pos_);
  }

  /// Records that item `key` got a new seen value, so its cached lower bound
  /// is stale; a first sighting also enters it into the buffer.
  void Touch(ListKey key) {
    lb_epoch_of_[key] = 0;
    if (item_state_[key] == kUnseen) {
      item_state_[key] = kActive;
      active_items_.push_back(key);
    }
  }

  /// One round-robin sweep: one sequential access on every non-exhausted
  /// list (Algorithm 1's getNext()).
  void DoRound(AccessCounter& counter) {
    for (std::size_t u = 0; u < g_; ++u) {
      const ListView& list = problem_.preference_lists()[u];
      if (!list.SkipToLive(pref_pos_[u])) continue;
      const ListEntry& e = list.ReadSequential(pref_pos_[u], counter);
      pref_bound_[u] = e.score;
      apref_val_[e.id * g_ + u] = e.score;
      apref_seen_[e.id * seen_words_ + (u >> 6)] |=
          std::uint64_t{1} << (u & 63);
      Touch(e.id);
    }
    {
      const ListView& list = problem_.static_affinity();
      if (list.SkipToLive(static_pos_)) {
        const ListEntry& e = list.ReadSequential(static_pos_, counter);
        static_bound_ = e.score;
        static_val_[e.id] = e.score;
        static_seen_[e.id] = 1;
        pairs_moved_ = true;
      }
    }
    for (std::size_t t = 0; t < num_periods_; ++t) {
      const ListView& list = problem_.period_affinity()[t];
      if (!list.SkipToLive(period_pos_[t])) continue;
      const ListEntry& e = list.ReadSequential(period_pos_[t], counter);
      period_bound_[t] = e.score;
      period_val_[t * num_pairs_ + e.id] = e.score;
      period_seen_[t * num_pairs_ + e.id] = 1;
      pairs_moved_ = true;
    }
    if (uses_agreement_) {
      const ListView& list = problem_.agreement_list();
      if (list.SkipToLive(ag_pos_)) {
        const ListEntry& e = list.ReadSequential(ag_pos_, counter);
        ag_bound_ = e.score;
        ag_val_[e.id] = e.score;
        ag_seen_[e.id] = 1;
        Touch(e.id);
      }
    }
  }

  /// Refreshes the temporal affinity interval of every group pair from the
  /// seen values and current cursor bounds, and expands the endpoints into
  /// the dense member×member matrices the bound loops read. The intervals
  /// depend only on the affinity cursors, so a round that moved none of
  /// them keeps the previous ones. A changed pair lower bound opens a new
  /// lower-bound epoch, which invalidates every cached item lower bound.
  void RefreshPairIntervals() {
    if (!pairs_moved_) return;
    pairs_moved_ = false;
    bool lb_changed = lb_epoch_ == 0;
    for (std::size_t q = 0; q < num_pairs_; ++q) {
      const Interval aff_s = static_seen_[q]
                                 ? Interval::Exact(static_val_[q])
                                 : Interval{0.0, static_bound_};
      for (std::size_t t = 0; t < num_periods_; ++t) {
        const std::size_t idx = t * num_pairs_ + q;
        aff_p_iv_[t] = period_seen_[idx]
                           ? Interval::Exact(period_val_[idx])
                           : Interval{0.0, period_bound_[t]};
      }
      const Interval iv = problem_.combiner().CombineInterval(aff_s, aff_p_iv_);
      lb_changed |= std::bit_cast<std::uint64_t>(iv.lb) !=
                    std::bit_cast<std::uint64_t>(pair_lb_[q]);
      pair_lb_[q] = iv.lb;
      pair_ub_[q] = iv.ub;
    }
    ExpandPairWeights(pair_lb_, g_, pair_lb_dense_);
    ExpandPairWeights(pair_ub_, g_, pair_ub_dense_);
    if (lb_changed) ++lb_epoch_;
  }

  /// Consensus interval over pref_iv_, with the agreement interval of the
  /// pairwise consensus.
  Interval Consensus(Interval ag) const {
    if (!uses_agreement_) {
      return ConsensusInterval(problem_.consensus(), pref_iv_,
                               problem_.consensus_weights());
    }
    return ConsensusIntervalWithAgreement(problem_.consensus(), pref_iv_, ag,
                                          problem_.consensus_weights());
  }

  /// Item `key`'s agreement interval (pairwise consensus only).
  Interval AgreementInterval(ListKey key) const {
    if (!uses_agreement_) return {};
    return ag_seen_[key] ? Interval::Exact(ag_val_[key])
                         : Interval{ag_floor_, ag_bound_};
  }

  /// Calls visit(u) for every member u whose preference of item `key` has
  /// been seen, in member order. Each seen-set word is loaded once.
  template <typename Visit>
  void ForEachSeenMember(ListKey key, Visit visit) const {
    const std::uint64_t* words = &apref_seen_[key * seen_words_];
    for (std::size_t w = 0; w < seen_words_; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Consensus-score interval of item `key` (ComputeLB/ComputeUB). An
  /// unseen preference spans [0, its list's cursor bound]; a seen one is
  /// exact.
  Interval ItemInterval(ListKey key) {
    const double* seen = &apref_val_[key * g_];
    for (std::size_t u = 0; u < g_; ++u) {
      apref_lb_[u] = 0.0;
      apref_ub_[u] = pref_bound_[u];
    }
    ForEachSeenMember(key, [&](std::size_t u) {
      apref_lb_[u] = seen[u];
      apref_ub_[u] = seen[u];
    });
    MemberPreferenceEndpoints(apref_lb_, pair_lb_dense_, pair_norm_,
                              pref_lb_);
    MemberPreferenceEndpoints(apref_ub_, pair_ub_dense_, pair_norm_,
                              pref_ub_);
    for (std::size_t u = 0; u < g_; ++u) {
      pref_iv_[u] = Interval{pref_lb_[u], pref_ub_[u]};
    }
    return Consensus(AgreementInterval(key));
  }

  /// ComputeUB alone. For a monotone F every upper endpoint of the consensus
  /// interval reads only upper endpoints of its inputs, so evaluating the
  /// interval over degenerate [ub, ub] member preferences yields exactly
  /// the upper bound ItemInterval computes.
  double ItemUpperBound(ListKey key) {
    const double* seen = &apref_val_[key * g_];
    for (std::size_t u = 0; u < g_; ++u) apref_ub_[u] = pref_bound_[u];
    ForEachSeenMember(key, [&](std::size_t u) { apref_ub_[u] = seen[u]; });
    MemberPreferenceEndpoints(apref_ub_, pair_ub_dense_, pair_norm_,
                              pref_ub_);
    for (std::size_t u = 0; u < g_; ++u) {
      pref_iv_[u] = Interval::Exact(pref_ub_[u]);
    }
    const Interval ag = AgreementInterval(key);
    return Consensus(Interval::Exact(ag.ub)).ub;
  }

  /// ComputeTh: the best consensus score any *unseen* item could reach given
  /// the current cursor positions. Unseen members' preferences are inexact,
  /// so a variance disagreement is bounded below by 0 here. Every unseen
  /// absolute preference has lower endpoint 0, so every member preference
  /// does too.
  double Threshold() {
    MemberPreferenceEndpoints(pref_bound_, pair_ub_dense_, pair_norm_,
                              pref_ub_);
    for (std::size_t u = 0; u < g_; ++u) {
      pref_iv_[u] = Interval{0.0, pref_ub_[u]};
    }
    return Consensus(Interval{ag_floor_, ag_bound_}).ub;
  }

  /// Evaluates the stopping conditions; returns true when the run may stop.
  bool CheckStop() {
    if (stats_ != nullptr) {
      ++stats_->stop_checks;
      stats_->peak_buffer_size =
          std::max(stats_->peak_buffer_size, active_items_.size());
    }
    const std::size_t k = config_.k;
    if (active_items_.size() < k) return AllExhausted();

    // Bounds. A monotone F's lower bound reads only lower endpoints: the
    // items' seen values (unseen ones read 0, or the agreement floor) and
    // the pair lower bounds. So an item's cached lower bound stays exact
    // until it gets a new seen value or the pair lower bounds change (a new
    // epoch); only the upper bounds, which read the moving cursor bounds,
    // are recomputed on every check. Variance disagreement mixes endpoints
    // and recomputes both.
    RefreshPairIntervals();
    item_lb_.resize(m_);
    item_ub_.resize(m_);
    for (const ListKey key : active_items_) {
      if (!monotone_ || lb_epoch_of_[key] != lb_epoch_) {
        const Interval iv = ItemInterval(key);
        item_lb_[key] = iv.lb;
        item_ub_[key] = iv.ub;
        lb_epoch_of_[key] = lb_epoch_;
      } else {
        item_ub_[key] = ItemUpperBound(key);
      }
    }

    // k-th largest lower bound among active items.
    scratch_lbs_.clear();
    for (const ListKey key : active_items_) scratch_lbs_.push_back(item_lb_[key]);
    std::nth_element(scratch_lbs_.begin(),
                     scratch_lbs_.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     scratch_lbs_.end(), std::greater<>());
    const double kth_lb = scratch_lbs_[k - 1];

    const double th = Threshold();
    if (stats_ != nullptr) stats_->final_threshold = th;

    if (config_.termination == TerminationPolicy::kBufferCondition) {
      // Prune buffered items that can no longer enter the top-k. Keep the k
      // items with the highest lower bounds (ties broken towards keeping).
      std::size_t kept_at_least = 0;
      std::size_t write = 0;
      for (std::size_t r = 0; r < active_items_.size(); ++r) {
        const ListKey key = active_items_[r];
        const bool in_topk_by_lb =
            item_lb_[key] >= kth_lb && kept_at_least < k;
        bool keep;
        if (in_topk_by_lb) {
          keep = true;
          ++kept_at_least;
        } else {
          keep = item_ub_[key] > kth_lb;
        }
        if (keep) {
          active_items_[write++] = key;
        } else {
          item_state_[key] = kPruned;
          if (stats_ != nullptr) ++stats_->pruned_items;
          pruned_any_ = true;
        }
      }
      active_items_.resize(write);

      // Buffer condition: exactly k candidates survive. For a monotone F,
      // Theorem 1 implies the threshold condition whenever anything was
      // pruned; the explicit threshold comparison covers the never-pruned
      // case and variance disagreement, which is not monotone in member
      // preferences (a pruned, fully seen item's exact score can fall below
      // what an unseen item reaches).
      if (active_items_.size() == k &&
          ((pruned_any_ && monotone_) || th <= kth_lb)) {
        if (stats_ != nullptr) {
          stats_->stopped_by_buffer_condition = pruned_any_;
        }
        return true;
      }
      return AllExhausted();
    }

    // Threshold-only policy: the classical condition can fire only when the
    // buffer itself holds exactly k items (paper §3.2).
    if (active_items_.size() == k && th <= kth_lb) return true;
    return AllExhausted();
  }

  std::vector<ListEntry> ExtractTopK() {
    // Final bounds for the surviving candidates.
    RefreshPairIntervals();
    std::vector<ListEntry> out;
    out.reserve(active_items_.size());
    for (const ListKey key : active_items_) {
      out.push_back({key, ItemInterval(key).lb});
    }
    std::sort(out.begin(), out.end(), [](const ListEntry& a, const ListEntry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    if (out.size() > config_.k) out.resize(config_.k);
    return out;
  }

  const GroupProblem& problem_;
  const GrecaConfig& config_;
  GrecaStats* stats_;

  // All bulk state lives in the (possibly caller-provided) workspace so its
  // capacity survives across runs; scalars stay run-local.

  // Cursors and last-read bounds per list.
  std::vector<std::size_t>& pref_pos_;
  std::vector<double>& pref_bound_;
  std::vector<std::size_t>& period_pos_;
  std::vector<double>& period_bound_;

  // Seen affinity components.
  std::vector<double>& static_val_;
  std::vector<std::uint8_t>& static_seen_;
  std::vector<double>& period_val_;
  std::vector<std::uint8_t>& period_seen_;

  // Seen absolute preferences per (item, member); the seen-set holds
  // seen_words_ words of member bits per item.
  std::vector<double>& apref_val_;
  std::vector<std::uint64_t>& apref_seen_;
  std::vector<std::uint8_t>& item_state_;
  std::vector<ListKey>& active_items_;

  // Seen group-agreement values per item (pairwise disagreement only).
  std::vector<double>& ag_val_;
  std::vector<std::uint8_t>& ag_seen_;

  // Lower-bound epoch each item's cached item_lb_ was computed in (0 =
  // stale).
  std::vector<std::uint32_t>& lb_epoch_of_;

  // Pair interval endpoints (local pair order) and their dense
  // member×member expansions.
  std::vector<double>& pair_lb_;
  std::vector<double>& pair_ub_;
  std::vector<double>& pair_lb_dense_;
  std::vector<double>& pair_ub_dense_;

  // Scratch.
  std::vector<Interval>& aff_p_iv_;
  std::vector<double>& apref_lb_;
  std::vector<double>& apref_ub_;
  std::vector<double>& pref_lb_;
  std::vector<double>& pref_ub_;
  std::vector<Interval>& pref_iv_;
  std::vector<double>& item_lb_;
  std::vector<double>& item_ub_;
  std::vector<double>& scratch_lbs_;

  const std::size_t g_;
  const std::size_t num_pairs_;
  const std::size_t num_periods_;
  const std::size_t m_;
  const std::size_t seen_words_;  // ⌈g/64⌉ seen-set words per item
  const double pair_norm_;  // 1/(g−1): rpref's normalization
  const double ag_floor_;
  const bool uses_agreement_;
  const bool monotone_;  // F is monotone in every list score (not VD)

  // Run-local cursor/flag scalars.
  std::size_t static_pos_ = 0;
  double static_bound_ = 1.0;
  std::size_t ag_pos_ = 0;
  double ag_bound_ = 1.0;
  bool pruned_any_ = false;
  bool pairs_moved_ = true;      // an affinity cursor moved since the refresh
  std::uint32_t lb_epoch_ = 0;   // current lower-bound epoch (0 = none yet)
};

}  // namespace

TopKResult Greca(const GroupProblem& problem, const GrecaConfig& config,
                 GrecaStats* stats, GrecaWorkspace* workspace) {
  assert(config.k >= 1);
  GrecaWorkspace local;
  GrecaRun run(problem, config, stats, workspace != nullptr ? *workspace : local);
  return run.Run();
}

}  // namespace greca
