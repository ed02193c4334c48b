// The eight user-study groups of §4.1.4 and the six characteristic buckets
// used on every quality-figure x-axis (Sim, Diss, Small, Large, High Aff,
// Low Aff).
#ifndef GRECA_EVAL_STUDY_GROUPS_H_
#define GRECA_EVAL_STUDY_GROUPS_H_

#include <string>
#include <vector>

#include "core/group_recommender.h"
#include "groups/group_formation.h"

namespace greca {

struct StudyGroupSpec {
  std::size_t size = 3;       // small = 3, large = 6 (§4.1.3)
  bool similar = true;        // cohesive vs dissimilar ratings
  bool high_affinity = true;  // pair-wise affinity >= 0.4 vs minimized
};

struct StudyGroup {
  StudyGroupSpec spec;
  Group members;
  double sum_similarity = 0.0;
  double min_affinity = 0.0;
  double max_affinity = 0.0;
};

/// The x-axis buckets of Figures 1–3.
enum class GroupCharacteristic {
  kSim,
  kDiss,
  kSmall,
  kLarge,
  kHighAff,
  kLowAff,
};

inline constexpr std::size_t kNumCharacteristics = 6;

std::string CharacteristicName(GroupCharacteristic c);
std::vector<GroupCharacteristic> AllCharacteristics();
bool HasCharacteristic(const StudyGroupSpec& spec, GroupCharacteristic c);

/// Forms the 2×2×2 study groups (size × cohesiveness × affinity) greedily
/// from the study participants. Cohesiveness is optimized among users who
/// rated the matching movie set; affinity uses the recommender's discrete
/// temporal model at the last period with the paper's 0.4 aspiration for
/// high-affinity groups.
std::vector<StudyGroup> FormStudyGroups(const GroupRecommender& recommender);

}  // namespace greca

#endif  // GRECA_EVAL_STUDY_GROUPS_H_
