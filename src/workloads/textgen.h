#pragma once

// Deterministic synthetic text: words drawn from a Zipf-distributed
// vocabulary, the usual stand-in for natural-language corpora. Word
// lengths follow English-ish statistics (3-10 chars, short words more
// common because frequent ranks get short words).
//
// Vocabularies and corpus files are shared, immutable datasets from the
// process-wide DatasetCache, so a TextGenerator is a cheap handle.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace mrapid::wl {

// The words of one generator identity (seed, size, zipf_s), plus the
// canonical ids WordCount counts with: ranks whose spellings collide
// share an id, and ids number the distinct spellings in lexicographic
// order.
class Vocabulary {
 public:
  Vocabulary(std::uint64_t seed, std::size_t size, double zipf_s);

  std::size_t size() const { return words_.size(); }
  const std::string& word(std::size_t rank) const { return words_[rank]; }
  std::size_t length(std::size_t rank) const { return lengths_[rank]; }
  const ZipfSampler& sampler() const { return sampler_; }

  std::uint32_t id(std::size_t rank) const { return ids_[rank]; }
  std::size_t distinct() const { return spelling_rank_.size(); }
  const std::string& spelling(std::uint32_t id) const { return words_[spelling_rank_[id]]; }
  // The id spelled `text`, if any.
  std::optional<std::uint32_t> find(std::string_view text) const;

  std::size_t footprint_bytes() const;

 private:
  std::vector<std::string> words_;  // by rank; every word fits the SSO buffer
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> ids_;            // rank -> canonical id
  std::vector<std::uint32_t> spelling_rank_;  // id -> lowest rank spelling it
  ZipfSampler sampler_;
};

// One generated file as its token sequence: the text is the ranks'
// words joined by single spaces (each followed by one), cut to `bytes`,
// so only the last token can be cut short.
struct CorpusFile {
  // Byte offset of every kStride-th token, for seeking to a split.
  static constexpr std::size_t kStride = 64;

  std::vector<std::uint32_t> ranks;
  std::vector<Bytes> starts;  // starts[i] = offset of token i * kStride
  Bytes bytes = 0;

  std::size_t footprint_bytes() const {
    return ranks.capacity() * sizeof(std::uint32_t) + starts.capacity() * sizeof(Bytes);
  }
};

class TextGenerator {
 public:
  TextGenerator(std::uint64_t seed, std::size_t vocabulary_size = 100000, double zipf_s = 1.1);

  // Generates exactly `bytes` of space-separated text, deterministic
  // in (seed, stream_tag).
  std::string generate(Bytes bytes, std::uint64_t stream_tag) const;

  // The same text as generate(bytes, stream_tag), as a shared token
  // sequence from the dataset cache.
  std::shared_ptr<const CorpusFile> file(Bytes bytes, std::uint64_t stream_tag) const;
  // The text of `file`.
  std::string spell(const CorpusFile& file) const;

  const Vocabulary& vocabulary() const { return *vocabulary_; }

 private:
  CorpusFile draw(Bytes bytes, std::uint64_t stream_tag) const;

  std::uint64_t seed_;
  double zipf_s_;
  std::shared_ptr<const Vocabulary> vocabulary_;
};

}  // namespace mrapid::wl
