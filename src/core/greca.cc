#include "core/greca.h"

#include <algorithm>
#include <cassert>
#include <vector>

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
        pair_iv_(ws.pair_iv),
        aff_p_iv_(ws.aff_p_iv),
        apref_iv_(ws.apref_iv),
        pref_iv_(ws.pref_iv),
        item_lb_(ws.item_lb),
        item_ub_(ws.item_ub),
        scratch_lbs_(ws.scratch_lbs),
        g_(problem.group_size()),
        num_pairs_(problem.num_pairs()),
        num_periods_(problem.num_periods()),
        m_(problem.num_items()),
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
    apref_seen_.assign(m_, 0u);
    item_state_.assign(m_, kUnseen);
    active_items_.clear();

    if (uses_agreement_) {
      ag_val_.assign(m_, 0.0);
      ag_seen_.assign(m_, 0);
    }

    // Scratch buffers reused across bound computations.
    pair_iv_.resize(num_pairs_);
    aff_p_iv_.resize(num_periods_);
    apref_iv_.resize(g_);
    pref_iv_.resize(g_);
  }

  TopKResult Run() {
    TopKResult result;
    result.total_entries = problem_.TotalEntries();
    assert(g_ <= 32 && "seen-bitmask limits groups to 32 members");

    bool stopped = false;
    while (!stopped && !AllExhausted()) {
      DoRound(result.accesses);
      ++result.rounds;
      const bool due = result.rounds % config_.check_interval == 0;
      if (due || AllExhausted()) {
        stopped = CheckStop();
      }
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

  /// One round-robin sweep: one sequential access on every non-exhausted
  /// list (Algorithm 1's getNext()).
  void DoRound(AccessCounter& counter) {
    for (std::size_t u = 0; u < g_; ++u) {
      const ListView& list = problem_.preference_lists()[u];
      if (!list.SkipToLive(pref_pos_[u])) continue;
      const ListEntry& e = list.ReadSequential(pref_pos_[u], counter);
      pref_bound_[u] = e.score;
      apref_val_[e.id * g_ + u] = e.score;
      apref_seen_[e.id] |= (1u << u);
      if (item_state_[e.id] == kUnseen) {
        item_state_[e.id] = kActive;
        active_items_.push_back(e.id);
      }
    }
    {
      const ListView& list = problem_.static_affinity();
      if (list.SkipToLive(static_pos_)) {
        const ListEntry& e = list.ReadSequential(static_pos_, counter);
        static_bound_ = e.score;
        static_val_[e.id] = e.score;
        static_seen_[e.id] = 1;
      }
    }
    for (std::size_t t = 0; t < num_periods_; ++t) {
      const ListView& list = problem_.period_affinity()[t];
      if (!list.SkipToLive(period_pos_[t])) continue;
      const ListEntry& e = list.ReadSequential(period_pos_[t], counter);
      period_bound_[t] = e.score;
      period_val_[t * num_pairs_ + e.id] = e.score;
      period_seen_[t * num_pairs_ + e.id] = 1;
    }
    if (uses_agreement_) {
      const ListView& list = problem_.agreement_list();
      if (list.SkipToLive(ag_pos_)) {
        const ListEntry& e = list.ReadSequential(ag_pos_, counter);
        ag_bound_ = e.score;
        ag_val_[e.id] = e.score;
        ag_seen_[e.id] = 1;
        if (item_state_[e.id] == kUnseen) {
          item_state_[e.id] = kActive;
          active_items_.push_back(e.id);
        }
      }
    }
  }

  /// Refreshes the temporal affinity interval of every group pair from the
  /// seen values and current cursor bounds.
  void RefreshPairIntervals() {
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
      pair_iv_[q] = problem_.combiner().CombineInterval(aff_s, aff_p_iv_);
    }
  }

  /// Consensus-score interval of item `key` (ComputeLB/ComputeUB).
  Interval ItemInterval(ListKey key) {
    const std::uint32_t mask = apref_seen_[key];
    for (std::size_t u = 0; u < g_; ++u) {
      apref_iv_[u] = (mask >> u) & 1u
                         ? Interval::Exact(apref_val_[key * g_ + u])
                         : Interval{0.0, pref_bound_[u]};
    }
    problem_.MemberPreferenceIntervals(apref_iv_, pair_iv_, pref_iv_);
    if (!uses_agreement_) {
      return ConsensusInterval(problem_.consensus(), pref_iv_,
                               problem_.consensus_weights());
    }
    const Interval ag = ag_seen_[key] ? Interval::Exact(ag_val_[key])
                                      : Interval{ag_floor_, ag_bound_};
    return ConsensusIntervalWithAgreement(problem_.consensus(), pref_iv_, ag,
                                          problem_.consensus_weights());
  }

  /// ComputeTh: the best consensus score any *unseen* item could reach given
  /// the current cursor positions. Unseen members' preferences are inexact,
  /// so a variance disagreement is bounded below by 0 here.
  double Threshold() {
    for (std::size_t u = 0; u < g_; ++u) {
      apref_iv_[u] = Interval{0.0, pref_bound_[u]};
    }
    problem_.MemberPreferenceIntervals(apref_iv_, pair_iv_, pref_iv_);
    if (!uses_agreement_) {
      return ConsensusInterval(problem_.consensus(), pref_iv_,
                               problem_.consensus_weights())
          .ub;
    }
    return ConsensusIntervalWithAgreement(problem_.consensus(), pref_iv_,
                                          Interval{ag_floor_, ag_bound_},
                                          problem_.consensus_weights())
        .ub;
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

    RefreshPairIntervals();
    item_lb_.resize(m_);
    item_ub_.resize(m_);
    for (const ListKey key : active_items_) {
      const Interval iv = ItemInterval(key);
      item_lb_[key] = iv.lb;
      item_ub_[key] = iv.ub;
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

  // Seen absolute preferences per (item, member).
  std::vector<double>& apref_val_;
  std::vector<std::uint32_t>& apref_seen_;
  std::vector<std::uint8_t>& item_state_;
  std::vector<ListKey>& active_items_;

  // Seen group-agreement values per item (pairwise disagreement only).
  std::vector<double>& ag_val_;
  std::vector<std::uint8_t>& ag_seen_;

  // Scratch.
  std::vector<Interval>& pair_iv_;
  std::vector<Interval>& aff_p_iv_;
  std::vector<Interval>& apref_iv_;
  std::vector<Interval>& pref_iv_;
  std::vector<double>& item_lb_;
  std::vector<double>& item_ub_;
  std::vector<double>& scratch_lbs_;

  const std::size_t g_;
  const std::size_t num_pairs_;
  const std::size_t num_periods_;
  const std::size_t m_;
  const double ag_floor_;
  const bool uses_agreement_;
  const bool monotone_;  // F is monotone in every list score (not VD)

  // Run-local cursor/flag scalars.
  std::size_t static_pos_ = 0;
  double static_bound_ = 1.0;
  std::size_t ag_pos_ = 0;
  double ag_bound_ = 1.0;
  bool pruned_any_ = false;
};

}  // namespace

TopKResult Greca(const GroupProblem& problem, const GrecaConfig& config,
                 GrecaStats* stats, GrecaWorkspace* workspace) {
  assert(config.k >= 1);
  assert(config.check_interval >= 1);
  GrecaWorkspace local;
  GrecaRun run(problem, config, stats, workspace != nullptr ? *workspace : local);
  return run.Run();
}

}  // namespace greca
