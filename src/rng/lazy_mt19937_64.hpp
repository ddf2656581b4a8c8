// A std::mt19937_64 that seeds and twists on demand.
//
// The fleet seeds one engine per client (query stream, churn departure,
// battery provisioning) and draws two to four numbers from each.  A
// std::mt19937_64 computes all 312 seeded state words and twists all of
// them before its first output.  The twist of word j < 156 reads only
// seeded words j, j+1 and j+156, so output j of the first block is ready
// once those three exist.  This engine seeds that far and twists that one
// word per output, and finishes the block the first time output 156 is
// asked for; later blocks are twisted whole, as std::mt19937_64 does.
// The output sequence is std::mt19937_64's, bit for bit, for every seed
// (tests/test_workload.cpp pins it).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace mosaiq::rng {

class LazyMt19937_64 {
 public:
  using result_type = std::uint_fast64_t;  // std::mt19937_64::result_type

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (next_ == ready_) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;  // state words
  static constexpr std::size_t kM = 156;  // twist offset

  /// Twists words [ready_, end) of the current block, where `end` is
  /// next_ + 1 while the first block can still be served from seeded
  /// words alone, and the end of the block otherwise.
  void refill() {
    if (next_ == kN) next_ = ready_ = 0;
    const std::size_t end = seeded_ < kN && next_ + kM < kN ? next_ + 1 : kN;
    seed_through(std::min(end + kM, kN));
    std::size_t k = ready_;
    // Words are replaced in index order, as std::mt19937_64 does: x[k+1]
    // is still old, and x[k+kM] is old before kN-kM and twisted after.
    for (; k < std::min(end, kN - kM); ++k) x_[k] = x_[k + kM] ^ mix(x_[k], x_[k + 1]);
    for (; k < std::min(end, kN - 1); ++k) x_[k] = x_[(k + kM) - kN] ^ mix(x_[k], x_[k + 1]);
    if (k < end) x_[kN - 1] = x_[kM - 1] ^ mix(x_[kN - 1], x_[0]);
    ready_ = end;
  }

  /// Computes seeded words [seeded_, n): x[i] = f * (x[i-1] ^ x[i-1] >> 62) + i.
  void seed_through(std::size_t n) {
    if (seeded_ >= n) return;
    result_type x = x_[seeded_ - 1];
    for (std::size_t i = seeded_; i < n; ++i) {
      x = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
      x_[i] = x;
    }
    seeded_ = n;
  }

  /// The twist's mix of a word's upper 33 bits and the next word's lower 31.
  static result_type mix(result_type upper, result_type lower) {
    constexpr result_type kUpper = ~result_type{0} << 31;
    const result_type y = (upper & kUpper) | (lower & ~kUpper);
    return (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
  }

  std::array<result_type, kN> x_{};
  std::size_t seeded_ = 1;  ///< words [0, seeded_) are seeded (and maybe twisted since)
  std::size_t ready_ = 0;   ///< words [0, ready_) of this block are twisted
  std::size_t next_ = 0;    ///< index of the next output in this block
};

}  // namespace mosaiq::rng
