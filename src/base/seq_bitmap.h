// A set of sequence numbers that are dense from 0: one bit per number.
//
// Stream receivers remember every sequence number they finished (completed
// or abandoned) for the life of a title. Their numbers run consecutively
// from 0, so a bit vector answers membership in O(1) and grows by whole
// words as the stream advances, with no per-number allocation.

#ifndef SRC_BASE_SEQ_BITMAP_H_
#define SRC_BASE_SEQ_BITMAP_H_

#include <cstdint>
#include <vector>

namespace crbase {

class SeqBitmap {
 public:
  bool contains(std::uint64_t seq) const {
    const std::uint64_t word = seq >> 6;
    return word < words_.size() && ((words_[word] >> (seq & 63)) & 1) != 0;
  }

  void insert(std::uint64_t seq) {
    const std::uint64_t word = seq >> 6;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    words_[word] |= std::uint64_t{1} << (seq & 63);
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace crbase

#endif  // SRC_BASE_SEQ_BITMAP_H_
