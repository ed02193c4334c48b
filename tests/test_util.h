// Shared helpers for the GRECA test suite.
#ifndef GRECA_TESTS_TEST_UTIL_H_
#define GRECA_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "affinity/temporal_model.h"
#include "common/rng.h"
#include "consensus/consensus.h"
#include "topk/problem.h"

namespace greca::testing {

/// Builds a GroupProblem over lists the caller hands over: the lists, their
/// views and the arena the agreement list is built in move into one heap
/// block pinned on the problem (GroupProblem::PinLifetime). Every key in
/// [0, num_items) is a live candidate; the number of period lists must
/// equal combiner.num_periods(). `weights` (uniform by default) must
/// outlive the problem.
GroupProblem MakeProblem(std::size_t num_items,
                         std::vector<SortedList> preference_lists,
                         SortedList static_affinity,
                         std::vector<SortedList> period_affinity,
                         AffinityCombiner combiner, ConsensusSpec consensus,
                         ConsensusWeights weights = {});

/// Builds a randomized but fully valid GroupProblem: `g` members over `m`
/// candidate items and `num_periods` periods, every list covering its whole
/// key space with scores in [0, 1]. Deterministic in `rng`.
GroupProblem MakeRandomProblem(Rng& rng, std::size_t g, std::size_t m,
                               std::size_t num_periods,
                               const ConsensusSpec& consensus,
                               const AffinityModelSpec& model,
                               ConsensusWeights weights = {});

/// The paper's running example (§3.1, Tables 1–4): three users, three items,
/// two periods. Preferences are normalized to [0, 1] by the 5-star scale.
GroupProblem MakeRunningExampleProblem(const ConsensusSpec& consensus,
                                       const AffinityModelSpec& model);

/// Sorted exact consensus scores of the given keys (descending).
std::vector<double> ExactScoresSorted(const GroupProblem& problem,
                                      const std::vector<ListEntry>& items);

}  // namespace greca::testing

#endif  // GRECA_TESTS_TEST_UTIL_H_
