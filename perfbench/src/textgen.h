// Seeded synthetic text for the benchmark's inputs.
//
// The documents follow the shape of src/workload/corpus.h — topic-structured,
// Zipfian term frequencies, every document of a topic carries the topic's marker
// word from CorpusTopics() — so the Table-4 selectivity buckets exist. Each
// vocabulary keeps its own precomputed Zipf CDF, so drawing a word is one binary
// search instead of rebuilding a shared table on every vocabulary switch.
#ifndef PERFBENCH_SRC_TEXTGEN_H_
#define PERFBENCH_SRC_TEXTGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/rng.h"

namespace perfbench {

struct GeneratedFile {
  std::string path;
  std::string content;
  std::vector<size_t> topics;  // indices into CorpusTopics()
};

class TextGen {
 public:
  explicit TextGen(uint64_t seed);

  // One document of about `words` words over the given topics (indices into
  // CorpusTopics()); each topic's marker word appears near the front.
  std::string Document(const std::vector<size_t>& topics, size_t words);

  // `count` files spread round-robin over `dirs` subdirectories of `root`
  // (root/d0 ... root/d<dirs-1>), each about `words` words on 1-3 topics. The
  // multiset of (topic set, length) pairs is the same for every seed.
  std::vector<GeneratedFile> Corpus(const std::string& root, size_t count, size_t dirs,
                                    size_t words);

  // 1-3 distinct topic indices, Zipf-skewed so selectivities spread out.
  std::vector<size_t> PickTopics();

  // The co-occurring words of topic `t` (the marker word is element 0).
  static const std::vector<std::string>& TopicWords(size_t t);

  hac::Rng& rng() { return rng_; }

 private:
  static constexpr uint64_t kShapeSeed = 0x5eedc0de;

  hac::Rng rng_;
};

// FNV-1a over every path and content, so runs of two commits can show they
// received identical inputs.
uint64_t InputsDigest(const std::vector<GeneratedFile>& files);

// 16 hex digits, for printing digests.
std::string Hex(uint64_t v);

// FNV-1a helpers shared by the output checks.
inline uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h ^= 0xff;
  h *= 0x100000001b3ULL;
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TEXTGEN_H_
