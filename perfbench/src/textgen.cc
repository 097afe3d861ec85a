#include "perfbench/src/textgen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "src/workload/corpus.h"

namespace perfbench {
namespace {

// Words that co-occur with each topic's marker, in CorpusTopics() order.
constexpr std::array<std::array<const char*, 8>, 12> kCoWords = {{
    {"ridges", "minutia", "scanner", "biometrics", "print", "matcher", "whorls", "delta"},
    {"homicide", "suspects", "clue", "inspector", "testimony", "motive", "trial", "jury"},
    {"pixels", "bitmap", "kernelsize", "blur", "sharpen", "contour", "hue", "gamma"},
    {"encoder", "decoder", "bitrate", "deflate", "symbols", "prefixcode", "window", "zip"},
    {"packets", "routing", "switch", "throughput", "tcp", "hops", "subnet", "firewall"},
    {"threads", "scheduling", "traps", "syscalls", "paging", "tlb", "locks", "drivers"},
    {"transactions", "index", "joins", "logging", "isolation", "schema", "cursor", "sql"},
    {"chords", "melodies", "tempos", "scales", "concerto", "violin", "piano", "score"},
    {"dough", "baking", "roast", "spices", "sauce", "pastry", "skillet", "broth"},
    {"stars", "planets", "comet", "eclipse", "observatory", "cosmos", "pulsar", "lens"},
    {"pawn", "bishop", "rook", "knight", "stalemate", "blitz", "elo", "tournament"},
    {"yacht", "sails", "hull", "jib", "harbor", "knots", "anchor", "tiller"},
}};

// A precomputed Zipf(s) CDF over n ranks.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Draw(hac::Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

const std::vector<std::string>& CommonWords() {
  static const std::vector<std::string> kWords = [] {
    constexpr std::array<const char*, 16> kOnset = {"b", "c", "d", "f", "g", "h", "j", "k",
                                                    "m", "n", "p", "qu", "r", "s", "v", "w"};
    constexpr std::array<const char*, 5> kVowel = {"a", "e", "i", "o", "ai"};
    constexpr std::array<const char*, 6> kCoda = {"", "d", "k", "m", "sh", "th"};
    hac::Rng rng(0x5EEDF00D);
    std::vector<std::string> words;
    words.reserve(6000);
    while (words.size() < 6000) {
      std::string w;
      const size_t syllables = 2 + rng.NextBelow(2);
      for (size_t s = 0; s < syllables; ++s) {
        w += kOnset[rng.NextBelow(kOnset.size())];
        w += kVowel[rng.NextBelow(kVowel.size())];
        w += kCoda[rng.NextBelow(kCoda.size())];
      }
      words.push_back(std::move(w));
    }
    return words;
  }();
  return kWords;
}

const ZipfTable& CommonZipf() {
  static const ZipfTable kTable(CommonWords().size(), 1.1);
  return kTable;
}
const ZipfTable& TopicZipf() {
  static const ZipfTable kTable(kCoWords[0].size() + 1, 1.3);
  return kTable;
}
const ZipfTable& TopicChoiceZipf() {
  static const ZipfTable kTable(kCoWords.size(), 0.8);
  return kTable;
}

}  // namespace

TextGen::TextGen(uint64_t seed) : rng_(seed) {}

const std::vector<std::string>& TextGen::TopicWords(size_t t) {
  static const std::vector<std::vector<std::string>> kWords = [] {
    std::vector<std::vector<std::string>> out;
    const auto& markers = hac::CorpusTopics();
    for (size_t i = 0; i < kCoWords.size(); ++i) {
      std::vector<std::string> words = {markers[i]};
      words.insert(words.end(), kCoWords[i].begin(), kCoWords[i].end());
      out.push_back(std::move(words));
    }
    return out;
  }();
  return kWords[t];
}

std::vector<size_t> TextGen::PickTopics() {
  std::vector<size_t> topics;
  const size_t n = 1 + rng_.NextBelow(3);
  while (topics.size() < n) {
    const size_t t = TopicChoiceZipf().Draw(rng_);
    if (std::find(topics.begin(), topics.end(), t) == topics.end()) {
      topics.push_back(t);
    } else if (rng_.NextBool(0.5)) {
      break;  // a repeat ends the list early, keeping small topic sets common
    }
  }
  return topics;
}

std::string TextGen::Document(const std::vector<size_t>& topics, size_t words) {
  const auto& common = CommonWords();
  std::string out;
  out.reserve(words * 8);
  size_t line = 0;
  for (size_t i = 0; i < words; ++i) {
    const std::string* w;
    if (i < topics.size()) {
      w = &TopicWords(topics[i])[0];
    } else if (!topics.empty() && rng_.NextBool(0.3)) {
      w = &TopicWords(topics[rng_.NextBelow(topics.size())])[TopicZipf().Draw(rng_)];
    } else {
      w = &common[CommonZipf().Draw(rng_)];
    }
    out += *w;
    line += w->size() + 1;
    if (line > 70) {
      out += '\n';
      line = 0;
    } else {
      out += ' ';
    }
  }
  out += '\n';
  return out;
}

std::vector<GeneratedFile> TextGen::Corpus(const std::string& root, size_t count,
                                           size_t dirs, size_t words) {
  // The topic sets and lengths of the files come from a fixed seed; the seed
  // of this generator only decides which file gets which, and every word. The
  // sizes of topic directories and of their unions and differences, which set
  // the cost of most operations, are then the same for every seed: drawn per
  // seed, they spread reclassify's update cost over five seeds 0.18
  // (IQR/median) against 0.07 for five runs of one seed.
  TextGen shape(kShapeSeed);
  std::vector<std::pair<std::vector<size_t>, size_t>> shapes(count);
  for (auto& [topics, length] : shapes) {
    topics = shape.PickTopics();
    length = words / 2 + shape.rng_.NextBelow(words);
  }
  rng_.Shuffle(shapes);
  std::vector<GeneratedFile> files;
  files.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    GeneratedFile f;
    f.topics = shapes[i].first;
    f.path = root + "/d" + std::to_string(i % dirs) + "/n" + std::to_string(i) + ".txt";
    f.content = Document(f.topics, shapes[i].second);
    files.push_back(std::move(f));
  }
  return files;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t InputsDigest(const std::vector<GeneratedFile>& files) {
  uint64_t h = kFnvBasis;
  for (const GeneratedFile& f : files) {
    h = Fnv(Fnv(h, f.path), f.content);
  }
  return h;
}

}  // namespace perfbench
