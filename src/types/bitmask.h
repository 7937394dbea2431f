/**
 * @file
 * Bitmask: a fixed-size set of small integers stored as 64-bit words.
 *
 * Arbiters keep their request sets in one, and the IQ router keeps its
 * per-input-VC work sets in them, so the allocation hot path visits only
 * set members (one countr_zero per member) instead of testing every
 * position. The words are allocated once at construction and never grow.
 */
#ifndef SS_TYPES_BITMASK_H_
#define SS_TYPES_BITMASK_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ss {

class Bitmask {
  public:
    explicit Bitmask(std::size_t size = 0)
        : size_(size), words_((size + 63) / 64, 0)
    {}

    std::size_t size() const { return size_; }

    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void set(std::size_t i) { words_[i >> 6] |= bit(i); }
    void reset(std::size_t i) { words_[i >> 6] &= ~bit(i); }
    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    /** Number of members. */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : words_) {
            n += static_cast<std::size_t>(std::popcount(w));
        }
        return n;
    }

    /** Smallest member >= @p from, or size() if there is none. */
    std::size_t
    next(std::size_t from) const
    {
        std::size_t w = from >> 6;
        if (w >= words_.size()) {
            return size_;
        }
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == words_.size()) {
                return size_;
            }
            bits = words_[w];
        }
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }

    /** The @p n-th smallest member (0-based); requires n < count(). */
    std::size_t
    nth(std::size_t n) const
    {
        for (std::size_t w = 0;; ++w) {
            std::uint64_t bits = words_[w];
            auto in_word = static_cast<std::size_t>(std::popcount(bits));
            if (n < in_word) {
                for (; n > 0; --n) {
                    bits &= bits - 1;
                }
                return (w << 6) +
                       static_cast<std::size_t>(std::countr_zero(bits));
            }
            n -= in_word;
        }
    }

    /** Calls @p fn(i) for every member i in ascending order; @p fn must
     *  not modify the mask. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                fn((w << 6) +
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

    bool operator==(const Bitmask& other) const = default;

  private:
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::size_t size_;
    std::vector<std::uint64_t> words_;
};

}  // namespace ss

#endif  // SS_TYPES_BITMASK_H_
