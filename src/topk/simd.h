// The one vector primitive behind every hot list scan: find the first live
// entry of a key array under a prefix restriction and a tombstone bitmap.
//
// The SoA index layout (index/preference_index.h) stores row keys as a bare
// uint32 array, so liveness of 8 entries is decidable from one 32-byte load:
// a key is live when it lies inside the prefix [0, key_space) AND its bit in
// the tombstone bitmap is clear. ListView's sequential scan reduces to
// FindFirstLive over some [begin, end) range of a key array — this header
// gives that primitive an AVX2 body with a scalar tail, plus a portable
// scalar fallback compiled when GRECA_SIMD is off (or the target has no
// AVX2). Both paths return bit-identical positions; the
// equivalence suites and the -DGRECA_SIMD=OFF CI job hold them to it.
//
// The tombstone bitmap only covers the prefix ((key_space + 63) / 64 words),
// while keys range over the whole row — out-of-prefix lanes therefore MUST
// NOT touch the bitmap. The AVX2 path uses a masked gather with an all-ones
// source: dead lanes never issue a memory access (the mask predates the
// load, per the ISA), and the all-ones fill reads back as "tombstoned",
// which is exactly what out-of-prefix means.
#ifndef GRECA_TOPK_SIMD_H_
#define GRECA_TOPK_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(GRECA_SIMD) && defined(__AVX2__)
#define GRECA_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace greca::simd {

/// Lanes per vector iteration of FindFirstLive (1 on the scalar fallback).
/// Tests use it to build tails that exercise the non-multiple remainder.
#if defined(GRECA_SIMD_AVX2)
inline constexpr std::size_t kLanes = 8;
#else
inline constexpr std::size_t kLanes = 1;
#endif

/// True when `key` is dead: outside [0, key_space) or tombstoned.
/// `tombstones` may be null (nothing tombstoned); when non-null it covers
/// at least (key_space + 63) / 64 words.
inline bool IsDeadKey(std::uint32_t key, std::size_t key_space,
                      const std::uint64_t* tombstones) {
  if (key >= key_space) return true;
  if (tombstones == nullptr) return false;
  return (tombstones[key >> 6] >> (key & 63u)) & 1u;
}

/// First position in [begin, end) whose key is live (in-prefix and not
/// tombstoned), or `end` when none is. Pure — safe to call on shared rows
/// from any number of threads.
inline std::size_t FindFirstLiveScalar(const std::uint32_t* keys,
                                       std::size_t begin, std::size_t end,
                                       std::size_t key_space,
                                       const std::uint64_t* tombstones) {
  std::size_t pos = begin;
  while (pos < end && IsDeadKey(keys[pos], key_space, tombstones)) ++pos;
  return pos;
}

#if defined(GRECA_SIMD_AVX2)

inline std::size_t FindFirstLive(const std::uint32_t* keys, std::size_t begin,
                                 std::size_t end, std::size_t key_space,
                                 const std::uint64_t* tombstones) {
  std::size_t pos = begin;
  // Sequential scans call this once per consumed entry, so the probe usually
  // sits on a live entry already, and scattered tombstones make short dead
  // runs: resolve up to one vector's worth of entries scalar before paying
  // the vector constant setup + masked gather, which per call costs more
  // than 8 scalar probes. The vector body earns its keep on the long dead
  // runs — a small prefix skipping an index row's out-of-prefix tail.
  const std::size_t probe_end = pos + 8 < end ? pos + 8 : end;
  for (; pos < probe_end; ++pos) {
    if (!IsDeadKey(keys[pos], key_space, tombstones)) return pos;
  }
  if (key_space > 0xFFFFFFFFull) {
    // Every uint32 key is inside the prefix; only the bitmap can kill one —
    // and a bitmap this large never exists in practice, so take the scalar
    // walk rather than carrying a degenerate vector variant.
    return FindFirstLiveScalar(keys, begin, end, key_space, tombstones);
  }
  // AVX2 has no unsigned 32-bit compare: bias both sides by 0x80000000 and
  // compare signed — a monotone bijection, so key < key_space is preserved.
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i space_biased = _mm256_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(key_space) ^ 0x80000000u));
  const __m256i ones = _mm256_set1_epi32(1);
  const __m256i bit_mask = _mm256_set1_epi32(31);
  // The uint64 bitmap viewed as uint32 words: on little-endian x86 the word
  // holding key's bit is word key >> 5 at bit key & 31 — the gather unit
  // loads 32-bit elements, so this view is what it natively indexes.
  const int* const words = reinterpret_cast<const int*>(tombstones);
  for (; pos + 8 <= end; pos += 8) {
    const __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + pos));
    const __m256i in_prefix =
        _mm256_cmpgt_epi32(space_biased, _mm256_xor_si256(k, bias));
    __m256i live = in_prefix;
    if (tombstones != nullptr) {
      // Masked gather, src = all-ones: out-of-prefix lanes never touch the
      // bitmap (it only covers the prefix) and read back as "tombstoned".
      const __m256i widx = _mm256_srli_epi32(k, 5);
      const __m256i gathered = _mm256_mask_i32gather_epi32(
          _mm256_set1_epi32(-1), words, widx, in_prefix, 4);
      const __m256i bit = _mm256_and_si256(
          _mm256_srlv_epi32(gathered, _mm256_and_si256(k, bit_mask)), ones);
      const __m256i dead = _mm256_cmpeq_epi32(bit, ones);
      live = _mm256_andnot_si256(dead, in_prefix);
    }
    const int m = _mm256_movemask_ps(_mm256_castsi256_ps(live));
    if (m != 0) {
      return pos + static_cast<std::size_t>(
                       std::countr_zero(static_cast<unsigned>(m)));
    }
  }
  return FindFirstLiveScalar(keys, pos, end, key_space, tombstones);
}

#else  // scalar fallback (GRECA_SIMD off or no AVX2 target)

inline std::size_t FindFirstLive(const std::uint32_t* keys, std::size_t begin,
                                 std::size_t end, std::size_t key_space,
                                 const std::uint64_t* tombstones) {
  return FindFirstLiveScalar(keys, begin, end, key_space, tombstones);
}

#endif

}  // namespace greca::simd

#endif  // GRECA_TOPK_SIMD_H_
