// Bit-identity trace of GRECA. Every case pins the exact run: the returned
// items with their lower-bound score bits, rounds, sequential and random
// accesses, the exhaustive-scan total, early termination and every
// GrecaStats field (final_threshold by its bits). The cases cover AP, MO, PD
// and VD; uniform and influence-weighted consensus; both termination
// policies; groups of 1, 2, 6 and 32; and prefix-sliced, tombstoned views.
// Any change to how GRECA evaluates its bounds must reproduce these traces
// exactly, with a fresh workspace and with one workspace reused across
// problems of every shape.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/greca.h"
#include "topk/list_view.h"
#include "topk/problem.h"
#include "topk/sorted_list.h"

namespace greca {
namespace {

constexpr std::size_t kTopK = 5;
constexpr std::size_t kPeriods = 2;

struct GoldenCase {
  const char* consensus_name;
  ConsensusSpec consensus;
  bool weighted;
  TerminationPolicy policy;
  std::size_t g;
  bool tombstoned;

  std::string Label() const {
    return std::string(consensus_name) + (weighted ? "/weighted" : "/uniform") +
           (policy == TerminationPolicy::kBufferCondition ? "/buffer"
                                                          : "/threshold") +
           "/g" + std::to_string(g) + (tombstoned ? "/tomb" : "/dense");
  }
};

std::vector<GoldenCase> AllCases() {
  const struct {
    const char* name;
    ConsensusSpec spec;
  } consensus_menu[] = {
      {"AP", ConsensusSpec::AveragePreference()},
      {"MO", ConsensusSpec::LeastMisery()},
      {"PD", ConsensusSpec::PairwiseDisagreement(0.6)},
      {"VD", ConsensusSpec::VarianceDisagreement(0.8)},
  };
  std::vector<GoldenCase> cases;
  for (const auto& c : consensus_menu) {
    for (const bool weighted : {false, true}) {
      for (const TerminationPolicy policy :
           {TerminationPolicy::kBufferCondition,
            TerminationPolicy::kThresholdOnly}) {
        for (const std::size_t g : {1u, 2u, 6u, 32u}) {
          for (const bool tombstoned : {false, true}) {
            cases.push_back({c.name, c.spec, weighted, policy, g, tombstoned});
          }
        }
      }
    }
  }
  return cases;
}

/// Storage behind one case's views; outlives the problem built over it.
struct CaseStorage {
  std::vector<SortedList> preference;
  std::vector<std::uint64_t> tombstones;
  std::vector<ListView> preference_views;
  SortedList static_list;
  std::vector<SortedList> period;
  std::vector<ListView> period_views;
  std::vector<double> member_weights;
  std::vector<double> pair_weights;
  std::unique_ptr<ProblemArena> arena = std::make_unique<ProblemArena>();
};

SortedList PairList(Rng& rng, std::size_t pairs) {
  // Affinity lists carry many zero scores, as study affinities do.
  std::vector<ListEntry> entries;
  for (ListKey q = 0; q < pairs; ++q) {
    entries.push_back({q, rng.NextBool(0.3) ? 0.0 : rng.NextDouble()});
  }
  return SortedList::FromUnsorted(std::move(entries),
                                  static_cast<ListKey>(pairs));
}

GroupProblem BuildProblem(const GoldenCase& c, std::uint64_t seed,
                          CaseStorage& s) {
  Rng rng(seed);
  // Candidates are a prefix of each row; 32-member groups get fewer so the
  // case stays quick while its 496 pair lists are read to the end.
  const std::size_t prefix = c.g == 32 ? 16 : 96;
  const std::size_t pool = prefix + 24;
  // Star-like predictions (twentieths of the scale) so rows hold ties.
  for (std::size_t u = 0; u < c.g; ++u) {
    std::vector<ListEntry> entries;
    for (ListKey key = 0; key < pool; ++key) {
      entries.push_back(
          {key, static_cast<double>(rng.NextBounded(21)) / 20.0});
    }
    s.preference.push_back(
        SortedList::FromUnsorted(std::move(entries),
                                 static_cast<ListKey>(pool)));
  }
  std::size_t live = prefix;
  if (c.tombstoned) {
    s.tombstones.assign((prefix + 63) / 64, 0);
    for (ListKey key = 1; key < prefix; ++key) {
      if (rng.NextBool(0.25)) {
        s.tombstones[key >> 6] |= std::uint64_t{1} << (key & 63u);
        --live;
      }
    }
  }
  for (const SortedList& list : s.preference) {
    s.preference_views.emplace_back(list.keys(), list.scores(),
                                    list.key_positions(), prefix, live,
                                    s.tombstones);
  }

  const std::size_t pairs = NumUserPairs(c.g);
  s.static_list = PairList(rng, pairs);
  const AffinityModelSpec model_menu[] = {
      AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
      AffinityModelSpec::TimeAgnostic(), AffinityModelSpec::AffinityAgnostic()};
  const AffinityModelSpec model = model_menu[rng.NextBounded(4)];
  std::vector<double> averages;
  if (model.affinity_aware && model.time_aware) {
    for (std::size_t t = 0; t < kPeriods; ++t) {
      s.period.push_back(PairList(rng, pairs));
      averages.push_back(rng.NextDouble(0.0, 0.5));
    }
  }
  for (const SortedList& list : s.period) s.period_views.emplace_back(list);

  if (c.weighted) {
    double sum = 0.0;
    for (std::size_t u = 0; u < c.g; ++u) {
      s.member_weights.push_back(rng.NextDouble(0.1, 1.0));
      sum += s.member_weights.back();
    }
    for (double& w : s.member_weights) w /= sum;
    double pair_sum = 0.0;
    for (std::size_t a = 0; a < c.g; ++a) {
      for (std::size_t b = a + 1; b < c.g; ++b) {
        s.pair_weights.push_back(s.member_weights[a] * s.member_weights[b]);
        pair_sum += s.pair_weights.back();
      }
    }
    for (double& w : s.pair_weights) w /= pair_sum;
  }
  return GroupProblem(prefix, live, s.preference_views,
                      ListView(s.static_list), s.period_views,
                      AffinityCombiner(model, std::move(averages)),
                      c.consensus, *s.arena,
                      {s.member_weights, s.pair_weights});
}

std::string Hex(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                std::bit_cast<std::uint64_t>(v));
  return buf;
}

/// One line holding everything a run reports.
std::string Trace(const GoldenCase& c, std::uint64_t seed,
                  GrecaWorkspace* workspace) {
  CaseStorage storage;
  const GroupProblem problem = BuildProblem(c, seed, storage);
  GrecaConfig config;
  config.k = kTopK;
  config.termination = c.policy;
  GrecaStats stats;
  const TopKResult r = Greca(problem, config, &stats, workspace);
  std::string line = "rounds=" + std::to_string(r.rounds) +
                     " sa=" + std::to_string(r.accesses.sequential) +
                     " ra=" + std::to_string(r.accesses.random) +
                     " total=" + std::to_string(r.total_entries) +
                     " early=" + std::to_string(r.early_terminated) +
                     " peak=" + std::to_string(stats.peak_buffer_size) +
                     " pruned=" + std::to_string(stats.pruned_items) +
                     " checks=" + std::to_string(stats.stop_checks) +
                     " bycond=" +
                     std::to_string(stats.stopped_by_buffer_condition) +
                     " th=" + Hex(stats.final_threshold) + " items=";
  for (std::size_t i = 0; i < r.items.size(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(r.items[i].id) + ":" + Hex(r.items[i].score);
  }
  return line;
}

struct Golden {
  const char* label;
  const char* trace;
};

// Captured from the bound evaluation that recomputed every buffered item's
// interval on every stop check. Order: AllCases().
const Golden kGolden[] = {
    {"AP/uniform/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=9:3fe0000000000000,23:3fe0000000000000,61:3fe0000000000000,72:3fe0000000000000,74:3fe0000000000000"},
    {"AP/uniform/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=79 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fde666666666666 items=54:3fe0000000000000,65:3fe0000000000000,88:3fe0000000000000,27:3fde666666666666,37:3fde666666666666"},
    {"AP/uniform/buffer/g2/dense",
     "rounds=20 sa=41 ra=0 total=193 early=1 peak=35 pruned=30 checks=20 bycond=1 th=3fe8ef1d67c99938 items=61:3fed558c01a1e16f,35:3fec99cee7fdd566,31:3febde11ce59c95d,70:3febde11ce59c95c,77:3feb2254b4b5bd53"},
    {"AP/uniform/buffer/g2/tomb",
     "rounds=24 sa=51 ra=0 total=147 early=1 peak=28 pruned=31 checks=24 bycond=1 th=3fd926b3090878f9 items=84:3fe184181d25e688,86:3fe184181d25e688,83:3fe09e2401659912,12:3fdf705fcb4a9737,92:3fdf705fcb4a9737"},
    {"AP/uniform/buffer/g6/dense",
     "rounds=74 sa=489 ra=0 total=621 early=1 peak=92 pruned=91 checks=74 bycond=1 th=3fc31d968054b622 items=34:3fe0312a982ec5d0,76:3fddb03741412d6d,70:3fdd6ec2037c8bf5,53:3fdd3a7c50793596,87:3fdc9a26287bffcd"},
    {"AP/uniform/buffer/g6/tomb",
     "rounds=55 sa=375 ra=0 total=477 early=1 peak=72 pruned=67 checks=55 bycond=1 th=3fc59e9a3ed4dfe4 items=72:3fe3478d4b189736,41:3fe117b4a51eb783,54:3fe02fadca62dea8,53:3fe006156b1dce96,30:3fde673ab8640c24"},
    {"AP/uniform/buffer/g32/dense",
     "rounds=355 sa=867 ra=0 total=1008 early=1 peak=16 pruned=11 checks=355 bycond=1 th=3f9abb4d76bf6fc8 items=4:3fda4931d0dc5c26,10:3fd9c7e93ff66e7f,2:3fd83d5cd5bbb37a,1:3fd793a8eb759a1c,7:3fd6e4a6f4884078"},
    {"AP/uniform/buffer/g32/tomb",
     "rounds=14 sa=462 ra=0 total=976 early=1 peak=15 pruned=10 checks=14 bycond=1 th=3fab999999999998 items=5:3fd38ccccccccccc,12:3fd3199999999999,10:3fd28ccccccccccd,9:3fd1e66666666666,14:3fd159999999999a"},
    {"AP/uniform/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fde666666666666 items=30:3fe0000000000000,47:3fe0000000000000,90:3fe0000000000000,0:3fde666666666666,34:3fde666666666666"},
    {"AP/uniform/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=72 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fde666666666666 items=47:3fe0000000000000,53:3fe0000000000000,55:3fe0000000000000,72:3fe0000000000000,18:3fde666666666666"},
    {"AP/uniform/threshold/g2/dense",
     "rounds=96 sa=193 ra=0 total=193 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=72:3fde666666666666,18:3fdd99999999999a,32:3fdccccccccccccd,49:3fdc000000000000,78:3fdc000000000000"},
    {"AP/uniform/threshold/g2/tomb",
     "rounds=71 sa=145 ra=0 total=145 early=0 peak=71 pruned=0 checks=71 bycond=0 th=0000000000000000 items=68:3fef333333333333,59:3feccccccccccccd,14:3feb333333333333,24:3feb333333333333,70:3feb333333333333"},
    {"AP/uniform/threshold/g6/dense",
     "rounds=96 sa=591 ra=0 total=591 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=2:3fe13e15bbf2bedc,20:3fe13125dc016412,19:3fdedb7104718408,5:3fde8f8f4e99ad80,61:3fde10998add177a"},
    {"AP/uniform/threshold/g6/tomb",
     "rounds=76 sa=501 ra=0 total=501 early=0 peak=76 pruned=0 checks=76 bycond=0 th=0000000000000000 items=24:3fe168a4a2112ca6,43:3fe10d82de649360,33:3fe028c141595653,80:3fdfd8a0df31435d,59:3fdea91c0ef5dcf2"},
    {"AP/uniform/threshold/g32/dense",
     "rounds=496 sa=1008 ra=0 total=1008 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3fa18c0cee36bf10 items=5:3fd961536d3eb384,7:3fd93d82a9966f41,2:3fd849694f6c39a4,0:3fd7843408355eac,1:3fd776b01756ca52"},
    {"AP/uniform/threshold/g32/tomb",
     "rounds=496 sa=1808 ra=0 total=1808 early=0 peak=10 pruned=0 checks=496 bycond=0 th=3fad5d964f124354 items=5:3fdb5e2068017bec,12:3fda9ba026dc1ef5,2:3fd9546d93780ea6,14:3fd8b3b1090ed5e2,3:3fd89783d9f8069e"},
    {"AP/weighted/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=36:3fe0000000000000,39:3fe0000000000000,42:3fe0000000000000,61:3fe0000000000000,64:3fe0000000000000"},
    {"AP/weighted/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=75 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=26:3fe0000000000000,27:3fe0000000000000,49:3fe0000000000000,56:3fe0000000000000,60:3fe0000000000000"},
    {"AP/weighted/buffer/g2/dense",
     "rounds=24 sa=49 ra=0 total=193 early=1 peak=29 pruned=34 checks=24 bycond=1 th=3fda70af69683c5c items=69:3fdf28ea30315d3e,15:3fde7af86c6a1250,19:3fdda3e29c9b6f8e,21:3fdda3e29c9b6f8e,95:3fdda3e29c9b6f8e"},
    {"AP/weighted/buffer/g2/tomb",
     "rounds=31 sa=63 ra=0 total=151 early=1 peak=44 pruned=45 checks=31 bycond=1 th=3fe01017b2535ac2 items=51:3feb1a0d5f9de0b6,33:3fe884855775c660,16:3fe86ad48c820b6e,21:3fe7065fbd7a4352,11:3fe69f9c91ab578a"},
    {"AP/weighted/buffer/g6/dense",
     "rounds=66 sa=411 ra=0 total=591 early=1 peak=90 pruned=91 checks=66 bycond=1 th=3fc940d9a67a1459 items=30:3fe1aa31e5144f3a,36:3fdf2e8b15576eca,32:3fdf25970f20cc10,69:3fddd06c45c4db2d,83:3fdd9fc8b40dd199"},
    {"AP/weighted/buffer/g6/tomb",
     "rounds=59 sa=369 ra=0 total=429 early=1 peak=66 pruned=64 checks=59 bycond=1 th=3fac4a3c830a0ebf items=82:3fd78b388cb8352f,88:3fd4b39d7eaa450b,25:3fd4964175209963,38:3fd473b04eec1357,92:3fd450a7e9e35d42"},
    {"AP/weighted/buffer/g32/dense",
     "rounds=347 sa=859 ra=0 total=1008 early=1 peak=16 pruned=11 checks=347 bycond=1 th=3f99baab3ece0161 items=11:3fd90c0a71f7ce10,2:3fd845a28c82db97,10:3fd7adce21f0f783,15:3fd78ed7335ee950,9:3fd7851a1c2b4b8b"},
    {"AP/weighted/buffer/g32/tomb",
     "rounds=340 sa=1372 ra=0 total=1840 early=1 peak=11 pruned=6 checks=340 bycond=1 th=3fb08f277bca8596 items=3:3fdd113b2e24aad0,2:3fdbe0b7ac984448,14:3fdb213b9830c530,5:3fda67979c21fc3e,10:3fda4179f7cea8c8"},
    {"AP/weighted/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=15:3fe0000000000000,25:3fe0000000000000,28:3fe0000000000000,58:3fe0000000000000,63:3fe0000000000000"},
    {"AP/weighted/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=73 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=30:3fe0000000000000,45:3fe0000000000000,51:3fe0000000000000,68:3fe0000000000000,92:3fe0000000000000"},
    {"AP/weighted/threshold/g2/dense",
     "rounds=96 sa=195 ra=0 total=195 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=39:3fdea03e92221a20,27:3fde666666666666,45:3fdcccccccccccce,65:3fdb6f6392aabeb0,47:3fdb6d0b5eeee6ee"},
    {"AP/weighted/threshold/g2/tomb",
     "rounds=75 sa=153 ra=0 total=153 early=0 peak=75 pruned=0 checks=75 bycond=0 th=0000000000000000 items=94:3feb333333333334,40:3fea666666666666,45:3fea666666666666,78:3fea666666666666,60:3fe8000000000000"},
    {"AP/weighted/threshold/g6/dense",
     "rounds=96 sa=591 ra=0 total=591 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=66:3fda12b3089d7bcf,33:3fd81015fa79e9e1,75:3fd7dcbf5713a5ef,82:3fd7597850197f68,17:3fd72240dcfbea0a"},
    {"AP/weighted/threshold/g6/tomb",
     "rounds=80 sa=495 ra=0 total=495 early=0 peak=80 pruned=0 checks=80 bycond=0 th=0000000000000000 items=65:3fd72666358ffb0c,17:3fd6e22a1f799a6a,74:3fd6013f965356d1,89:3fd5fc8c43797f5d,94:3fd5f0956c65708b"},
    {"AP/weighted/threshold/g32/dense",
     "rounds=496 sa=1008 ra=0 total=1008 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3f9b77176584111b items=4:3fdb96c2f1897961,0:3fd98d0c94193753,5:3fd86043cf9a4e1a,8:3fd6c472f90c58d3,13:3fd696f63efd49b0"},
    {"AP/weighted/threshold/g32/tomb",
     "rounds=496 sa=848 ra=0 total=848 early=0 peak=11 pruned=0 checks=496 bycond=0 th=3fa63986d5d8867e items=11:3fd83eab54f4beac,4:3fd5e9a48a2569f8,0:3fd4b4d7a7fa2095,7:3fd46094de8492a7,1:3fd3f4b0ef52ea0a"},
    {"MO/uniform/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=4:3fe0000000000000,56:3fe0000000000000,60:3fe0000000000000,65:3fe0000000000000,69:3fe0000000000000"},
    {"MO/uniform/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=73 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=32:3fe0000000000000,34:3fe0000000000000,40:3fe0000000000000,63:3fe0000000000000,83:3fe0000000000000"},
    {"MO/uniform/buffer/g2/dense",
     "rounds=26 sa=55 ra=0 total=195 early=1 peak=45 pruned=41 checks=26 bycond=1 th=3fd6666666666666 items=32:3fdccccccccccccd,7:3fdb333333333333,8:3fd999999999999a,65:3fd999999999999a,2:3fd6666666666666"},
    {"MO/uniform/buffer/g2/tomb",
     "rounds=23 sa=47 ra=0 total=141 early=1 peak=29 pruned=33 checks=23 bycond=1 th=3fd8608e449659e3 items=66:3fe0c8e760ecc475,95:3fdff835283fef50,15:3fdfbb284265b2b5,77:3fde5e9b8ea655b7,36:3fde218ea8cc191c"},
    {"MO/uniform/buffer/g6/dense",
     "rounds=92 sa=597 ra=0 total=621 early=1 peak=95 pruned=91 checks=92 bycond=1 th=3f70aa981933cc7e items=78:3fe25564690bff0a,61:3fdf7bbff0850626,31:3fda3c667f4a9b6a,60:3fd978470c97bf6e,82:3fd969a2b52a578c"},
    {"MO/uniform/buffer/g6/tomb",
     "rounds=53 sa=363 ra=0 total=459 early=1 peak=69 pruned=64 checks=53 bycond=1 th=3fc21867cfccd142 items=25:3fdce46b65f1961e,91:3fd8a3ce3f7af260,75:3fd87299ce7cff5f,90:3fd7ba635cdb73c9,35:3fd750324575f910"},
    {"MO/uniform/buffer/g32/dense",
     "rounds=342 sa=854 ra=0 total=1008 early=1 peak=16 pruned=11 checks=342 bycond=1 th=3f73bb241bb674b7 items=4:3fc28ca51b01049c,7:3fbc8a815662d38a,11:3fbc88ace049f354,5:3fbb83627cbaa26c,12:3fba23122ad3b88d"},
    {"MO/uniform/buffer/g32/tomb",
     "rounds=359 sa=1461 ra=0 total=1872 early=1 peak=12 pruned=7 checks=359 bycond=1 th=3f6cc1df97040b1b items=7:3fc07bd86bafcede,6:3fbdd9c2baca21ac,10:3fba53037c62ccd3,8:3fb5c4e46df2ddb7,11:3fb5523ab5b0ad56"},
    {"MO/uniform/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=2:3fe0000000000000,28:3fe0000000000000,40:3fe0000000000000,73:3fe0000000000000,75:3fe0000000000000"},
    {"MO/uniform/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=71 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fdccccccccccccd items=88:3fe0000000000000,37:3fde666666666666,42:3fdccccccccccccd,58:3fdccccccccccccd,63:3fdccccccccccccd"},
    {"MO/uniform/threshold/g2/dense",
     "rounds=96 sa=193 ra=0 total=193 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=50:3fe8a00d152ae270,7:3fe7d340485e15a4,94:3fe683918c6ddc3d,17:3fe639a6aec47c0a,13:3fe600af9d4a6fa3"},
    {"MO/uniform/threshold/g2/tomb",
     "rounds=68 sa=137 ra=0 total=137 early=0 peak=68 pruned=0 checks=68 bycond=0 th=0000000000000000 items=76:3fe319ced4961cbc,85:3fe2dda3357a206b,93:3fe1d4aac991574d,49:3fe03b112ff7bdb4,79:3fdf8573e37f8a22"},
    {"MO/uniform/threshold/g6/dense",
     "rounds=96 sa=621 ra=0 total=621 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=72:3fdae79dffd88c17,29:3fd8b1428104da04,0:3fd53ac6b9ce22cf,9:3fd52c23c8b2ee7e,54:3fd2cd8ce1e5d406"},
    {"MO/uniform/threshold/g6/tomb",
     "rounds=72 sa=477 ra=0 total=477 early=0 peak=72 pruned=0 checks=72 bycond=0 th=0000000000000000 items=89:3fdd4f4b9cc221fc,52:3fdbbc9f2d24a3ac,13:3fdb513c20604f7c,50:3fda475962525cf4,82:3fd8e31d080576d9"},
    {"MO/uniform/threshold/g32/dense",
     "rounds=496 sa=2000 ra=0 total=2000 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3f66a34ad0c52d8f items=13:3fc4616165cd1bfe,2:3fc25b6bb333a5ea,1:3fc0b55ac836743c,4:3fc08291a3211845,7:3fbcdda52e5f6f62"},
    {"MO/uniform/threshold/g32/tomb",
     "rounds=496 sa=1776 ra=0 total=1776 early=0 peak=9 pruned=0 checks=496 bycond=0 th=3f8b20a67ea55f9a items=14:3fc81e08fdd11fa6,5:3fc79b8c981c4555,11:3fc71258cc1aba29,10:3fc62631412ba32b,7:3fc5c2f5fe5e8d07"},
    {"MO/weighted/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe0000000000000 items=55:3fe0000000000000,75:3fe0000000000000,80:3fe0000000000000,85:3fe0000000000000,88:3fe0000000000000"},
    {"MO/weighted/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=72 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fde666666666666 items=42:3fe0000000000000,77:3fe0000000000000,86:3fe0000000000000,94:3fe0000000000000,9:3fde666666666666"},
    {"MO/weighted/buffer/g2/dense",
     "rounds=28 sa=57 ra=0 total=193 early=1 peak=37 pruned=41 checks=28 bycond=1 th=3fd4cccccccccccd items=74:3fde666666666666,72:3fdccccccccccccd,36:3fdb333333333333,92:3fd999999999999a,95:3fd999999999999a"},
    {"MO/weighted/buffer/g2/tomb",
     "rounds=24 sa=49 ra=0 total=161 early=1 peak=27 pruned=33 checks=24 bycond=1 th=3fdcd197e5d2a72e items=28:3fe2addcbb593c42,41:3fe24050e60dc078,68:3fe1e10fee8c6f74,51:3fe173841940f3ab,37:3fe0dd7d3719e4c4"},
    {"MO/weighted/buffer/g6/dense",
     "rounds=61 sa=381 ra=0 total=591 early=1 peak=96 pruned=91 checks=61 bycond=1 th=3fc3333333333333 items=5:3fcccccccccccccd,58:3fcccccccccccccd,8:3fc999999999999a,59:3fc999999999999a,62:3fc999999999999a"},
    {"MO/weighted/buffer/g6/tomb",
     "rounds=54 sa=369 ra=0 total=453 early=1 peak=68 pruned=63 checks=54 bycond=1 th=3fbe3c1fabb65aa7 items=93:3fdaf6bd68253122,42:3fd95b8079b23790,64:3fd7e06dd64b9206,16:3fd78bda799551f1,78:3fd558b1ef0320e2"},
    {"MO/weighted/buffer/g32/dense",
     "rounds=328 sa=1496 ra=0 total=2000 early=1 peak=16 pruned=11 checks=328 bycond=1 th=3f826eba513a84ac items=9:3fcdba62aacebac3,2:3fcbdaaf1e745486,1:3fc76ade9600c42a,8:3fc70d855cf2a84a,12:3fc620954c04cd00"},
    {"MO/weighted/buffer/g32/tomb",
     "rounds=321 sa=673 ra=0 total=848 early=1 peak=11 pruned=6 checks=321 bycond=1 th=3f870dd11814418e items=8:3fbc450f1bf6e9c2,13:3fbb4fd4225f06d0,15:3fbb45d78e9f1e2a,2:3fbad3d4a2e89cb4,14:3fba982ec688d26c"},
    {"MO/weighted/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fde666666666666 items=28:3fe0000000000000,86:3fe0000000000000,37:3fde666666666666,59:3fde666666666666,61:3fde666666666666"},
    {"MO/weighted/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=69 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fdccccccccccccd items=53:3fe0000000000000,25:3fdccccccccccccd,43:3fdccccccccccccd,86:3fdccccccccccccd,89:3fdccccccccccccd"},
    {"MO/weighted/threshold/g2/dense",
     "rounds=96 sa=193 ra=0 total=193 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=16:3fef0a3ee975e7c6,69:3fee3d721ca91afa,10:3feca7f0f0d5a284,72:3febd70bb642b493,87:3febd70bb642b493"},
    {"MO/weighted/threshold/g2/tomb",
     "rounds=70 sa=141 ra=0 total=141 early=0 peak=70 pruned=0 checks=70 bycond=0 th=0000000000000000 items=60:3feab9c9aa2b03b6,13:3fe95549fa6e649f,54:3fe95549fa6e649f,35:3fe7bbb060d4cb05,43:3fe7869676f7d083"},
    {"MO/weighted/threshold/g6/dense",
     "rounds=96 sa=621 ra=0 total=621 early=0 peak=96 pruned=0 checks=96 bycond=0 th=0000000000000000 items=47:3fe1be96667df378,60:3fe11f8626b98968,72:3fe0cf12c30dd5e8,18:3fddb1c5f4acf017,73:3fdc5e7a78a1afe0"},
    {"MO/weighted/threshold/g6/tomb",
     "rounds=74 sa=489 ra=0 total=489 early=0 peak=74 pruned=0 checks=74 bycond=0 th=0000000000000000 items=32:3fd7f3cfb8cf4382,5:3fd77b232d15d5be,20:3fd6f75791e8c4fc,18:3fd66b466e0d9561,66:3fd523217295b5d6"},
    {"MO/weighted/threshold/g32/dense",
     "rounds=496 sa=2000 ra=0 total=2000 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3f86883e5e1a9822 items=7:3fc7b1b443d00691,0:3fc70be16e55dcde,8:3fc68eda8e7d1249,14:3fc4ab95d6ea4224,12:3fc384fe463336a8"},
    {"MO/weighted/threshold/g32/tomb",
     "rounds=496 sa=912 ra=0 total=912 early=0 peak=13 pruned=0 checks=496 bycond=0 th=0000000000000000 items=0:3fa999999999999a,6:3f9999999999999a,7:3f9999999999999a,10:3f9999999999999a,12:3f9999999999999a"},
    {"PD/uniform/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe5eb851eb851ec items=49:3fe6666666666666,66:3fe6666666666666,65:3fe5eb851eb851ec,73:3fe5eb851eb851ec,86:3fe5eb851eb851ec"},
    {"PD/uniform/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=73 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe6666666666666 items=37:3fe6666666666666,45:3fe6666666666666,71:3fe6666666666666,79:3fe6666666666666,93:3fe6666666666666"},
    {"PD/uniform/buffer/g2/dense",
     "rounds=53 sa=160 ra=0 total=289 early=1 peak=57 pruned=91 checks=53 bycond=1 th=bfd170a3d70a3d6f items=27:3fe47ae147ae147b,19:3fe2f5c28f5c28f5,91:3fe27ae147ae147c,71:3fe2147ae147ae15,85:3fe10a3d70a3d70a"},
    {"PD/uniform/buffer/g2/tomb",
     "rounds=42 sa=127 ra=0 total=220 early=1 peak=56 pruned=68 checks=42 bycond=1 th=bfcb19d9cd2daf9e items=80:3fea4460a3edffbc,35:3fe54b8c8394bf1a,82:3fe49618f1858684,47:3fe3e3508165028e,20:3fe32b31cd671560"},
    {"PD/uniform/buffer/g6/dense",
     "rounds=65 sa=470 ra=0 total=687 early=1 peak=95 pruned=91 checks=65 bycond=1 th=bfcda077b8cecc8f items=57:3fd8673457446c16,29:3fd6ed8ecf909414,70:3fd32a09ffd1391a,64:3fc94e87229c3efb,84:3fc8c39fbc5abffd"},
    {"PD/uniform/buffer/g6/tomb",
     "rounds=51 sa=402 ra=0 total=605 early=1 peak=75 pruned=75 checks=51 bycond=1 th=bfc719dd5c763519 items=22:3fe39b1a71dd617d,42:3fe033b27b09c078,49:3fd3ebe7bb467843,77:3fd16a379a8893f7,19:3fd1038801935477"},
    {"PD/uniform/buffer/g32/dense",
     "rounds=12 sa=408 ra=0 total=1024 early=1 peak=16 pruned=11 checks=12 bycond=1 th=bfd0fcdca7cdca7e items=4:3f910edd50edd4f8,5:bfb5d3137d3137d4,0:bfb7a0ddfa0ddfa2,13:bfb8670f8670f86a,11:bfb96318c6318c64"},
    {"PD/uniform/buffer/g32/tomb",
     "rounds=335 sa=764 ra=0 total=925 early=1 peak=13 pruned=8 checks=335 bycond=1 th=bfd45d15604e2226 items=8:bf83f42c6161e440,2:bf8c2d3a0baef7e0,11:bfa1d601794c7694,1:bfb39cb8a5c2a6d6,12:bfb55caffec75322"},
    {"PD/uniform/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe5eb851eb851ec items=24:3fe6666666666666,62:3fe6666666666666,83:3fe6666666666666,18:3fe5eb851eb851ec,19:3fe5eb851eb851ec"},
    {"PD/uniform/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=64 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe5eb851eb851ec items=19:3fe6666666666666,71:3fe6666666666666,95:3fe6666666666666,20:3fe5eb851eb851ec,58:3fe5eb851eb851ec"},
    {"PD/uniform/threshold/g2/dense",
     "rounds=96 sa=291 ra=0 total=291 early=0 peak=96 pruned=0 checks=96 bycond=0 th=bff4cccccccccccd items=38:3fec51eb851eb851,59:3fea666666666666,71:3fe8a3d70a3d70a4,50:3fe87ae147ae147a,27:3fe68f5c28f5c291"},
    {"PD/uniform/threshold/g2/tomb",
     "rounds=83 sa=250 ra=0 total=250 early=0 peak=83 pruned=0 checks=83 bycond=0 th=bff8000000000000 items=12:3fe4f5c28f5c28f6,30:3fe08f5c28f5c28f,66:3fe028f5c28f5c29,19:3fdf333333333332,94:3fdf333333333332"},
    {"PD/uniform/threshold/g6/dense",
     "rounds=96 sa=717 ra=0 total=717 early=0 peak=96 pruned=0 checks=96 bycond=0 th=bfe47ae147ae147c items=35:3fe5a31cb5fce567,32:3fd9be1e8cd23362,51:3fd31df8fae543a8,90:3fd1e76ee399b150,77:3fcb7beff9154550"},
    {"PD/uniform/threshold/g6/tomb",
     "rounds=69 sa=528 ra=0 total=528 early=0 peak=69 pruned=0 checks=69 bycond=0 th=bfe7777777777778 items=48:3fd7973195c9a80a,19:3fd6ee462fbf0aaa,66:3fd0b86c8001e100,25:3fd09700210c616f,79:3fd025f70aed3739"},
    {"PD/uniform/threshold/g32/dense",
     "rounds=496 sa=1024 ra=0 total=1024 early=0 peak=16 pruned=0 checks=496 bycond=0 th=bfd94f71af34dbb9 items=2:3f8072d673c8e320,4:bf86eb5b242f3780,8:bf9f4330199e6400,14:bfb09e0b3f3147c4,13:bfb363ef2e0ad806"},
    {"PD/uniform/threshold/g32/tomb",
     "rounds=496 sa=1917 ra=0 total=1917 early=0 peak=13 pruned=0 checks=496 bycond=0 th=bfd78ad74c8231bf items=13:3fa97c443e904b78,5:bf399be782aaae00,1:bf7bb9beb7cd58e0,3:bf90f34de0be1910,10:bf9b3c1f53249f30"},
    {"PD/weighted/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe6666666666666 items=0:3fe6666666666666,13:3fe6666666666666,27:3fe6666666666666,72:3fe6666666666666,77:3fe6666666666666"},
    {"PD/weighted/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=71 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe570a3d70a3d71 items=71:3fe6666666666666,55:3fe5eb851eb851ec,68:3fe5eb851eb851ec,77:3fe5eb851eb851ec,41:3fe570a3d70a3d71"},
    {"PD/weighted/buffer/g2/dense",
     "rounds=77 sa=232 ra=0 total=289 early=1 peak=52 pruned=91 checks=77 bycond=1 th=bfe7a15433d1c242 items=42:3fe52bf3bd5e200b,56:3fe1b97a4b40672e,15:3fe1289a72061b13,13:3fe02c77bf222f68,54:3fddd74af5d6f755"},
    {"PD/weighted/buffer/g2/tomb",
     "rounds=40 sa=121 ra=0 total=220 early=1 peak=54 pruned=67 checks=40 bycond=1 th=bfbe9d17ca4851b8 items=50:3fe47f6af7e2e151,83:3fe43efdc38b8cfc,94:3fe336fb4609dde6,55:3fe292c36d1d5c30,57:3fe292c36d1d5c30"},
    {"PD/weighted/buffer/g6/dense",
     "rounds=57 sa=444 ra=0 total=717 early=1 peak=96 pruned=91 checks=57 bycond=1 th=bfc90643cd61cf93 items=12:3fd94f47a1e867e3,32:3fd85bfc3070c035,76:3fd23227c62f7e8c,70:3fd192fb6598f7ae,9:3fd01f40c9cabe88"},
    {"PD/weighted/buffer/g6/tomb",
     "rounds=40 sa=295 ra=0 total=505 early=1 peak=65 pruned=65 checks=40 bycond=1 th=bfcde1a149cd8bb7 items=31:3fce197baa2d002e,80:3fcb6d7174cceed8,4:3fca73a62c05fd85,47:3fc4bdf3297fdd40,34:3fc41afb903f216c"},
    {"PD/weighted/buffer/g32/dense",
     "rounds=12 sa=408 ra=0 total=1024 early=1 peak=16 pruned=11 checks=12 bycond=1 th=bfd174e84ea03862 items=5:bf9b125addd3b128,2:bfa557e6d12eb974,14:bfb16a280057b288,4:bfc09729cd3dd6f0,1:bfc2908444c68bc1"},
    {"PD/weighted/buffer/g32/tomb",
     "rounds=298 sa=1389 ra=0 total=1983 early=1 peak=15 pruned=10 checks=298 bycond=1 th=bfd7b42b068c40f6 items=4:3f953ff2dea5b180,2:bfa5badd7c4caf20,6:bfb04900a6b3d928,3:bfb16a47eca54ff2,10:bfb207a56c892c56"},
    {"PD/weighted/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe6666666666666 items=6:3fe6666666666666,18:3fe6666666666666,29:3fe6666666666666,49:3fe6666666666666,76:3fe6666666666666"},
    {"PD/weighted/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=69 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe6666666666666 items=11:3fe6666666666666,13:3fe6666666666666,20:3fe6666666666666,32:3fe6666666666666,58:3fe6666666666666"},
    {"PD/weighted/threshold/g2/dense",
     "rounds=96 sa=291 ra=0 total=291 early=0 peak=96 pruned=0 checks=96 bycond=0 th=bff8000000000000 items=65:3fe7f288f39ac2c8,21:3fe5b7c9b8a4c4c8,53:3fe52919e9e74548,24:3fe49a6a1b29c5c8,94:3fe35f27b8af1ee0"},
    {"PD/weighted/threshold/g2/tomb",
     "rounds=67 sa=202 ra=0 total=202 early=0 peak=67 pruned=0 checks=67 bycond=0 th=bff999999999999a items=83:3fe6666666666666,23:3fdf5c28f5c28f5c,84:3fde73dae04b3efc,67:3fdb2c78f640c6ea,63:3fda9cd0a2da9b26"},
    {"PD/weighted/threshold/g6/dense",
     "rounds=96 sa=687 ra=0 total=687 early=0 peak=96 pruned=0 checks=96 bycond=0 th=bfe64a5b40845935 items=95:3fd7e661e02a1c0a,25:3fd19d2b646573a2,74:3fcddd2d1d3fc75a,40:3fcc938f3be21635,10:3fc7fd61e1a5ba49"},
    {"PD/weighted/threshold/g6/tomb",
     "rounds=68 sa=491 ra=0 total=491 early=0 peak=68 pruned=0 checks=68 bycond=0 th=bfe93a15d5524d48 items=71:3fd2994035c760f7,6:3fd0756b6f2ebf82,48:3fcea6c5dd6a5bdb,39:3fc9878a54bb6c2f,78:3fc920aa2cca8290"},
    {"PD/weighted/threshold/g32/dense",
     "rounds=496 sa=2016 ra=0 total=2016 early=0 peak=16 pruned=0 checks=496 bycond=0 th=bfd91c5bf3ac1766 items=10:bf9dd444019d0438,0:bfaa240ce8ec5040,9:bfaab013551f78bc,1:bfb4434ea4c49f20,8:bfb63e38d8a3adfc"},
    {"PD/weighted/threshold/g32/tomb",
     "rounds=496 sa=1884 ra=0 total=1884 early=0 peak=12 pruned=0 checks=496 bycond=0 th=bfd71670db248e49 items=5:3fa8f52def5a1ee0,1:3f8c7ad26b835a80,0:bfa35d2deaa37134,7:bfa6efc03cda7654,10:bfaf4b51a2f0c8cc"},
    {"VD/uniform/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe147ae147ae148 items=25:3fe3333333333333,63:3fe3333333333333,0:3fe28f5c28f5c28f,47:3fe1eb851eb851ec,75:3fe147ae147ae148"},
    {"VD/uniform/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=75 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe3333333333333 items=30:3fe3333333333333,31:3fe3333333333333,48:3fe3333333333333,85:3fe3333333333333,87:3fe3333333333333"},
    {"VD/uniform/buffer/g2/dense",
     "rounds=37 sa=75 ra=0 total=193 early=1 peak=41 pruned=57 checks=37 bycond=1 th=3fdccccccccccccc items=81:3fe3333333333333,56:3fe28e5604189374,26:3fe1995810624dd3,39:3fe146a7ef9db22e,16:3fe13e76c8b43958"},
    {"VD/uniform/buffer/g2/tomb",
     "rounds=27 sa=57 ra=0 total=133 early=1 peak=21 pruned=36 checks=27 bycond=1 th=3fe0939c4fed4014 items=9:3fe616a654150b76,32:3fe5a8599f4759ba,77:3fe4d0a607e070a6,91:3fe4d0a607e070a6,85:3fe46472ad293c83"},
    {"VD/uniform/buffer/g6/dense",
     "rounds=85 sa=555 ra=0 total=621 early=1 peak=92 pruned=91 checks=85 bycond=1 th=3fcff873833390ae items=39:3fe51b8fc1cd0d15,10:3fe4af40f40897af,64:3fe4a1cb70bcc920,9:3fe3bb4a0289d171,80:3fe376a2bae6e76a"},
    {"VD/uniform/buffer/g6/tomb",
     "rounds=65 sa=435 ra=0 total=501 early=1 peak=75 pruned=71 checks=65 bycond=1 th=3fd250ea109ebfc4 items=17:3fe5d7d7744ce26a,12:3fe56d680db0277f,36:3fe49b666c0a270d,16:3fe41b50a693a742,68:3fe405243110765e"},
    {"VD/uniform/buffer/g32/dense",
     "rounds=347 sa=1553 ra=0 total=2000 early=1 peak=16 pruned=11 checks=347 bycond=1 th=3fcc9684d7008596 items=3:3fe36feca0dd3250,13:3fe2f3beaf77f810,10:3fe2ceb6c000d7c3,4:3fe1d79080889940,2:3fe1cbd275e7d7a8"},
    {"VD/uniform/buffer/g32/tomb",
     "rounds=341 sa=757 ra=0 total=912 early=1 peak=13 pruned=8 checks=341 bycond=1 th=3fce615b727c124f items=0:3fe17bfa5c73213b,2:3fe1245c17df25aa,15:3fdfd3a9ca6aeb77,1:3fdfc9a60982290a,4:3fdfc98eeb8b9f64"},
    {"VD/uniform/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe3333333333333 items=1:3fe3333333333333,12:3fe3333333333333,31:3fe3333333333333,33:3fe3333333333333,41:3fe3333333333333"},
    {"VD/uniform/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=72 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe28f5c28f5c28f items=23:3fe3333333333333,47:3fe3333333333333,72:3fe3333333333333,34:3fe28f5c28f5c28f,39:3fe28f5c28f5c28f"},
    {"VD/uniform/threshold/g2/dense",
     "rounds=96 sa=193 ra=0 total=193 early=0 peak=96 pruned=0 checks=96 bycond=0 th=3fc9999999999998 items=87:3fe3333333333333,0:3fe28e5604189374,19:3fe23d2f1a9fbe77,29:3fe23b22d0e56042,41:3fe0f374bc6a7efa"},
    {"VD/uniform/threshold/g2/tomb",
     "rounds=72 sa=147 ra=0 total=147 early=0 peak=72 pruned=0 checks=72 bycond=0 th=3fc9999999999998 items=11:3fe28f5c28f5c28f,68:3fe23b22d0e56042,81:3fe23b22d0e56042,2:3fe1974bc6a7ef9e,45:3fe1933333333333"},
    {"VD/uniform/threshold/g6/dense",
     "rounds=96 sa=591 ra=0 total=591 early=0 peak=96 pruned=0 checks=96 bycond=0 th=3fc9999999999998 items=1:3fdfbf258bf258bd,42:3fdfaf293003a411,63:3fdede181ef292ff,88:3fde77dd695bb473,19:3fde2674f6ab93ae"},
    {"VD/uniform/threshold/g6/tomb",
     "rounds=75 sa=495 ra=0 total=495 early=0 peak=75 pruned=0 checks=75 bycond=0 th=3fc9999999999998 items=20:3fe3f75b10d0109c,89:3fe3968c531d47b6,66:3fe380f014eb0da0,56:3fe33005778b4f4e,0:3fe2e6610f17e36b"},
    {"VD/uniform/threshold/g32/dense",
     "rounds=496 sa=1008 ra=0 total=1008 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3fcbc540821c1e3a items=11:3fdf3b97905eafac,13:3fded15b62d7a0ff,14:3fde9f3cfaf57b9d,5:3fde271b61b8a394,6:3fddddfb262f7b56"},
    {"VD/uniform/threshold/g32/tomb",
     "rounds=496 sa=976 ra=0 total=976 early=0 peak=15 pruned=0 checks=496 bycond=0 th=3fcc58597f68875f items=0:3fe012d07ba339ed,14:3fdfff4694a3e58a,3:3fdfcf5ab45920a6,10:3fdf7ff6041da204,7:3fdf6182b9de84cc"},
    {"VD/weighted/buffer/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe3333333333333 items=3:3fe3333333333333,12:3fe3333333333333,19:3fe3333333333333,22:3fe3333333333333,37:3fe3333333333333"},
    {"VD/weighted/buffer/g1/tomb",
     "rounds=5 sa=5 ra=0 total=78 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe28f5c28f5c28f items=7:3fe3333333333333,28:3fe3333333333333,59:3fe3333333333333,65:3fe28f5c28f5c28f,93:3fe28f5c28f5c28f"},
    {"VD/weighted/buffer/g2/dense",
     "rounds=19 sa=39 ra=0 total=193 early=1 peak=21 pruned=27 checks=19 bycond=1 th=3fe0a3d70a3d70a4 items=48:3fe2ef937e1f42cb,69:3fe2ef937e1f42cb,11:3fe2d27ced419eb3,37:3fe2d27ced419eb3,59:3fe24bbc73e1d228"},
    {"VD/weighted/buffer/g2/tomb",
     "rounds=25 sa=53 ra=0 total=145 early=1 peak=29 pruned=36 checks=25 bycond=1 th=3fe7ae147ae147ae items=78:3fed70a3d70a3d71,94:3fed70a3d70a3d70,20:3feccccccccccccd,57:3feccccccccccccd,77:3fec28f5c28f5c29"},
    {"VD/weighted/buffer/g6/dense",
     "rounds=77 sa=507 ra=0 total=621 early=1 peak=96 pruned=91 checks=77 bycond=1 th=3fd34e95d547244a items=64:3fe4e2be9934de5a,18:3fe3f8d570caaaa7,10:3fe390ec47dc8316,1:3fe357dd0987aa92,70:3fe32af9b37d8be6"},
    {"VD/weighted/buffer/g6/tomb",
     "rounds=64 sa=429 ra=0 total=489 early=1 peak=71 pruned=69 checks=64 bycond=1 th=3fd238e8b1f6f794 items=14:3fe63be57fa7c226,4:3fe6156136d75c6e,24:3fe5d82e984d0ff0,17:3fe5694f965f9734,60:3fe52240d728d25e"},
    {"VD/weighted/buffer/g32/dense",
     "rounds=351 sa=1565 ra=0 total=2000 early=1 peak=16 pruned=11 checks=351 bycond=1 th=3fcd813b4d6a0b4d items=3:3fe3cae7bbcbc165,1:3fe38066779af53d,10:3fe3524c131e589b,6:3fe34525a5d06482,9:3fe325bd9f4f89e3"},
    {"VD/weighted/buffer/g32/tomb",
     "rounds=334 sa=718 ra=0 total=880 early=1 peak=12 pruned=7 checks=334 bycond=1 th=3fcf116d3818e362 items=0:3fe0991d9bda5a48,8:3fe03ab7ce4356ce,5:3fe02fe127176b05,6:3fde8a91d756fab8,4:3fddeccffd9dd1a9"},
    {"VD/weighted/threshold/g1/dense",
     "rounds=5 sa=5 ra=0 total=96 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe28f5c28f5c28f items=10:3fe3333333333333,15:3fe3333333333333,20:3fe3333333333333,73:3fe3333333333333,74:3fe28f5c28f5c28f"},
    {"VD/weighted/threshold/g1/tomb",
     "rounds=5 sa=5 ra=0 total=69 early=1 peak=5 pruned=0 checks=5 bycond=0 th=3fe28f5c28f5c28f items=5:3fe3333333333333,38:3fe3333333333333,80:3fe3333333333333,81:3fe3333333333333,69:3fe28f5c28f5c28f"},
    {"VD/weighted/threshold/g2/dense",
     "rounds=96 sa=195 ra=0 total=195 early=0 peak=96 pruned=0 checks=96 bycond=0 th=3fc9999999999998 items=84:3fee147ae147ae14,14:3feccccccccccccd,69:3feccccccccccccd,73:3feccccccccccccd,83:3feccccccccccccd"},
    {"VD/weighted/threshold/g2/tomb",
     "rounds=75 sa=151 ra=0 total=151 early=0 peak=75 pruned=0 checks=75 bycond=0 th=3fc9999999999998 items=9:3fedeec577e43b90,23:3feadc58ac03e856,1:3fe99dc7b8dbafea,79:3fe99aeb64272bdc,95:3fe99aeb64272bdc"},
    {"VD/weighted/threshold/g6/dense",
     "rounds=96 sa=591 ra=0 total=591 early=0 peak=96 pruned=0 checks=96 bycond=0 th=3fc9999999999998 items=91:3fe452e269e1c31a,84:3fe43d93006daf9a,34:3fe4331dc4e091f6,16:3fe410d49b2058e7,68:3fe3e82b087095cf"},
    {"VD/weighted/threshold/g6/tomb",
     "rounds=71 sa=441 ra=0 total=441 early=0 peak=71 pruned=0 checks=71 bycond=0 th=3fc9999999999998 items=18:3fe0b6878e5bac8e,57:3fe01bbc92f5bebe,80:3fdf1f60de7a50ac,81:3fdec2df178ab8c7,11:3fde56b9164bf0ca"},
    {"VD/weighted/threshold/g32/dense",
     "rounds=496 sa=1008 ra=0 total=1008 early=0 peak=16 pruned=0 checks=496 bycond=0 th=3fcb72fb784c2354 items=4:3fe05fb2e069b1b4,10:3fe026885e1c1417,7:3fdfe83f26031daa,13:3fdfd24bc05ad36a,11:3fdfbe9070e98f10"},
    {"VD/weighted/threshold/g32/tomb",
     "rounds=496 sa=1936 ra=0 total=1936 early=0 peak=14 pruned=0 checks=496 bycond=0 th=3fcecf15089c23d6 items=8:3fe354d676d90aac,12:3fe29a60bda094c5,10:3fe28fa0f0e0145e,2:3fe1de9b722961a2,5:3fe1cf714c402c55"},
};

std::uint64_t SeedOf(std::size_t case_index) {
  return 0x9E3779B97F4A7C15ull ^ (case_index * 7919u);
}

TEST(GrecaGoldenTest, FreshWorkspaceReproducesTrace) {
  const std::vector<GoldenCase> cases = AllCases();
  ASSERT_EQ(std::size(kGolden), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].Label(), kGolden[i].label);
    EXPECT_EQ(Trace(cases[i], SeedOf(i), nullptr), kGolden[i].trace)
        << kGolden[i].label;
  }
}

TEST(GrecaGoldenTest, ReusedWorkspaceReproducesTrace) {
  // Reverse order: group sizes and buffer shapes shrink and grow from one
  // run to the next, so stale per-item state from an earlier run must never
  // leak into a later one.
  const std::vector<GoldenCase> cases = AllCases();
  ASSERT_EQ(std::size(kGolden), cases.size());
  GrecaWorkspace workspace;
  for (std::size_t n = cases.size(); n-- > 0;) {
    EXPECT_EQ(Trace(cases[n], SeedOf(n), &workspace), kGolden[n].trace)
        << kGolden[n].label;
  }
}

}  // namespace
}  // namespace greca
