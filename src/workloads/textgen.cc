#include "workloads/textgen.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "workloads/dataset_cache.h"

namespace mrapid::wl {

Vocabulary::Vocabulary(std::uint64_t seed, std::size_t size, double zipf_s)
    : sampler_(static_cast<std::int64_t>(size), zipf_s) {
  assert(size > 0 && size <= UINT32_MAX);
  words_.reserve(size);
  lengths_.reserve(size);
  RngStream rng(seed, "textgen.vocabulary");
  for (std::size_t rank = 0; rank < size; ++rank) {
    // Frequent (low-rank) words are short, like real language.
    const std::size_t max_len = rank < 100 ? 4 : (rank < 5000 ? 7 : 10);
    const std::size_t len =
        static_cast<std::size_t>(rng.next_int(3, static_cast<std::int64_t>(max_len)));
    std::string word;
    word.reserve(len);
    for (std::size_t c = 0; c < len; ++c) {
      word.push_back(static_cast<char>('a' + rng.next_int(0, 25)));
    }
    words_.push_back(std::move(word));
    lengths_.push_back(static_cast<std::uint8_t>(len));
  }

  // Canonical ids: ranks sorted by spelling, one id per distinct one.
  // A word of at most 10 letters a-z, read as a base-27 numeral with
  // the letters as digits 1-26 and zeros after its end, sorts exactly
  // as its spelling does, and equal numerals mean equal words.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_spelling(size);
  for (std::size_t rank = 0; rank < size; ++rank) {
    const std::string& word = words_[rank];
    std::uint64_t numeral = 0;
    for (std::size_t c = 0; c < 10; ++c) {
      const int digit = c < word.size() ? word[c] - 'a' + 1 : 0;
      numeral = numeral * 27 + static_cast<std::uint64_t>(digit);
    }
    by_spelling[rank] = {numeral, static_cast<std::uint32_t>(rank)};
  }
  std::sort(by_spelling.begin(), by_spelling.end());
  ids_.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (i == 0 || by_spelling[i].first != by_spelling[i - 1].first) {
      spelling_rank_.push_back(by_spelling[i].second);
    }
    ids_[by_spelling[i].second] = static_cast<std::uint32_t>(spelling_rank_.size() - 1);
  }
}

std::optional<std::uint32_t> Vocabulary::find(std::string_view text) const {
  const auto it = std::lower_bound(
      spelling_rank_.begin(), spelling_rank_.end(), text,
      [this](std::uint32_t rank, std::string_view key) { return words_[rank] < key; });
  if (it == spelling_rank_.end() || words_[*it] != text) return std::nullopt;
  return static_cast<std::uint32_t>(it - spelling_rank_.begin());
}

std::size_t Vocabulary::footprint_bytes() const {
  return words_.capacity() * sizeof(std::string) + lengths_.capacity() +
         (ids_.capacity() + spelling_rank_.capacity()) * sizeof(std::uint32_t) +
         sampler_.footprint_bytes();
}

TextGenerator::TextGenerator(std::uint64_t seed, std::size_t vocabulary_size, double zipf_s)
    : seed_(seed), zipf_s_(zipf_s) {
  vocabulary_ = DatasetCache::instance().acquire_as<Vocabulary>(
      DatasetKey::vocabulary(seed, vocabulary_size, zipf_s), [&] {
        auto built = std::make_shared<const Vocabulary>(seed, vocabulary_size, zipf_s);
        return DatasetCache::Built{built, built->footprint_bytes()};
      });
}

CorpusFile TextGenerator::draw(Bytes bytes, std::uint64_t stream_tag) const {
  RngStream rng(seed_ ^ (stream_tag * 0x9E3779B97F4A7C15ull), "textgen.body");
  const Vocabulary& vocabulary = *vocabulary_;
  CorpusFile file;
  file.bytes = bytes;
  Bytes size = 0;
  while (size < bytes) {
    if (file.ranks.size() % CorpusFile::kStride == 0) file.starts.push_back(size);
    const auto rank = static_cast<std::uint32_t>(vocabulary.sampler()(rng) - 1);
    file.ranks.push_back(rank);
    size += static_cast<Bytes>(vocabulary.length(rank)) + 1;
  }
  file.ranks.shrink_to_fit();
  return file;
}

std::string TextGenerator::generate(Bytes bytes, std::uint64_t stream_tag) const {
  return spell(draw(bytes, stream_tag));
}

std::shared_ptr<const CorpusFile> TextGenerator::file(Bytes bytes,
                                                      std::uint64_t stream_tag) const {
  return DatasetCache::instance().acquire_as<CorpusFile>(
      DatasetKey::corpus_file(seed_, vocabulary_->size(), zipf_s_, bytes, stream_tag), [&] {
        auto built = std::make_shared<const CorpusFile>(draw(bytes, stream_tag));
        return DatasetCache::Built{built, built->footprint_bytes()};
      });
}

std::string TextGenerator::spell(const CorpusFile& file) const {
  std::string text;
  text.reserve(static_cast<std::size_t>(file.bytes) + 16);
  for (const std::uint32_t rank : file.ranks) {
    text += vocabulary_->word(rank);
    text.push_back(' ');
  }
  text.resize(static_cast<std::size_t>(file.bytes));
  return text;
}

}  // namespace mrapid::wl
