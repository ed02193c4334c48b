#include "eval/study_groups.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace greca {

std::string CharacteristicName(GroupCharacteristic c) {
  switch (c) {
    case GroupCharacteristic::kSim:
      return "Sim";
    case GroupCharacteristic::kDiss:
      return "Diss";
    case GroupCharacteristic::kSmall:
      return "Small";
    case GroupCharacteristic::kLarge:
      return "Large";
    case GroupCharacteristic::kHighAff:
      return "High Aff";
    case GroupCharacteristic::kLowAff:
      return "Low Aff";
  }
  return "?";
}

std::vector<GroupCharacteristic> AllCharacteristics() {
  return {GroupCharacteristic::kSim,   GroupCharacteristic::kDiss,
          GroupCharacteristic::kSmall, GroupCharacteristic::kLarge,
          GroupCharacteristic::kHighAff, GroupCharacteristic::kLowAff};
}

bool HasCharacteristic(const StudyGroupSpec& spec, GroupCharacteristic c) {
  switch (c) {
    case GroupCharacteristic::kSim:
      return spec.similar;
    case GroupCharacteristic::kDiss:
      return !spec.similar;
    case GroupCharacteristic::kSmall:
      return spec.size <= 3;
    case GroupCharacteristic::kLarge:
      return spec.size > 3;
    case GroupCharacteristic::kHighAff:
      return spec.high_affinity;
    case GroupCharacteristic::kLowAff:
      return !spec.high_affinity;
  }
  return false;
}

namespace {

/// Greedy formation with a composite objective: mean pair-wise rating
/// similarity (sign per cohesiveness) plus the weakest/strongest affinity
/// link (sign per affinity class).
Group FormOne(const StudyGroupSpec& spec,
              const std::vector<UserId>& eligible,
              const std::function<double(UserId, UserId)>& sim,
              const std::function<double(UserId, UserId)>& aff) {
  assert(eligible.size() >= spec.size);
  const double cohesion_sign = spec.similar ? 1.0 : -1.0;

  const auto marginal = [&](const Group& group, UserId u) {
    double sim_sum = 0.0;
    double weakest = std::numeric_limits<double>::infinity();
    double strongest = 0.0;
    for (const UserId v : group) {
      sim_sum += sim(u, v);
      weakest = std::min(weakest, aff(u, v));
      strongest = std::max(strongest, aff(u, v));
    }
    const double cohesion =
        cohesion_sign * sim_sum / static_cast<double>(group.size());
    const double affinity = spec.high_affinity ? weakest : -strongest;
    return cohesion + affinity;
  };

  // Best seed pair.
  Group group;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    for (std::size_t j = i + 1; j < eligible.size(); ++j) {
      const Group single{eligible[i]};
      const double value = marginal(single, eligible[j]);
      if (value > best) {
        best = value;
        group = {eligible[i], eligible[j]};
      }
    }
  }
  while (group.size() < spec.size) {
    double best_gain = -std::numeric_limits<double>::infinity();
    UserId best_user = kInvalidUser;
    for (const UserId u : eligible) {
      if (std::find(group.begin(), group.end(), u) != group.end()) continue;
      const double gain = marginal(group, u);
      if (gain > best_gain) {
        best_gain = gain;
        best_user = u;
      }
    }
    group.push_back(best_user);
  }
  std::sort(group.begin(), group.end());
  return group;
}

}  // namespace

std::vector<StudyGroup> FormStudyGroups(const GroupRecommender& recommender) {
  const FacebookStudy& study = recommender.study();
  const std::size_t n = study.num_participants();

  // Cache the pair-wise signals once.
  std::vector<double> sim_cache(n * n, 0.0);
  std::vector<double> aff_cache(n * n, 0.0);
  const AffinityModelSpec model;  // discrete temporal model
  for (UserId a = 0; a < n; ++a) {
    for (UserId b = static_cast<UserId>(a + 1); b < n; ++b) {
      const double s = recommender.RatingSimilarity(a, b);
      const double f =
          recommender.ModelAffinity(a, b, std::nullopt, model);
      sim_cache[a * n + b] = sim_cache[b * n + a] = s;
      aff_cache[a * n + b] = aff_cache[b * n + a] = f;
    }
  }
  const auto sim = [&](UserId a, UserId b) { return sim_cache[a * n + b]; };
  const auto aff = [&](UserId a, UserId b) { return aff_cache[a * n + b]; };

  std::vector<UserId> rated_similar, rated_dissimilar;
  for (UserId u = 0; u < n; ++u) {
    (study.rated_dissimilar[u] ? rated_dissimilar : rated_similar)
        .push_back(u);
  }

  std::vector<StudyGroup> groups;
  for (const std::size_t size : {std::size_t{3}, std::size_t{6}}) {
    for (const bool similar : {true, false}) {
      for (const bool high_affinity : {true, false}) {
        StudyGroup sg;
        sg.spec = {size, similar, high_affinity};
        const auto& eligible = similar ? rated_similar : rated_dissimilar;
        sg.members = FormOne(sg.spec, eligible, sim, aff);
        for (std::size_t i = 0; i < sg.members.size(); ++i) {
          for (std::size_t j = i + 1; j < sg.members.size(); ++j) {
            const double s = sim(sg.members[i], sg.members[j]);
            const double f = aff(sg.members[i], sg.members[j]);
            sg.sum_similarity += s;
            sg.min_affinity =
                (i == 0 && j == 1) ? f : std::min(sg.min_affinity, f);
            sg.max_affinity = std::max(sg.max_affinity, f);
          }
        }
        groups.push_back(std::move(sg));
      }
    }
  }
  return groups;
}

}  // namespace greca
