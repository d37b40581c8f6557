#include "workloads/textgen.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

namespace mrapid::wl {

Vocabulary::Vocabulary(std::uint64_t seed, std::size_t size, double zipf_s)
    : sampler_(static_cast<std::int64_t>(size), zipf_s) {
  assert(size > 0 && size <= UINT32_MAX);
  lengths_.reserve(size);
  // (key, rank) of every word, sorted below into canonical ids.
  std::vector<std::pair<WordKey, std::uint32_t>> by_spelling(size);
  RngStream rng(seed, "textgen.vocabulary");
  for (std::size_t rank = 0; rank < size; ++rank) {
    // Frequent (low-rank) words are short, like real language.
    const std::size_t max_len = rank < 100 ? 4 : (rank < 5000 ? 7 : 10);
    const std::size_t len =
        static_cast<std::size_t>(rng.next_int(3, static_cast<std::int64_t>(max_len)));
    // The key encoding's precondition: at most 10 letters, all a-z.
    assert(len <= kMaxKeyLetters);
    char letters[kMaxKeyLetters];
    for (std::size_t c = 0; c < len; ++c) {
      letters[c] = static_cast<char>('a' + rng.next_int(0, 25));
    }
    by_spelling[rank] = {word_key(std::string_view(letters, len)),
                         static_cast<std::uint32_t>(rank)};
    lengths_.push_back(static_cast<std::uint8_t>(len));
  }

  // Canonical ids: ranks sorted by spelling (keys sort as spellings
  // do, and equal keys mean equal words), one id per distinct one.
  std::sort(by_spelling.begin(), by_spelling.end());
  ids_.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (i == 0 || by_spelling[i].first != by_spelling[i - 1].first) {
      keys_.push_back(by_spelling[i].first);
    }
    ids_[by_spelling[i].second] = static_cast<std::uint32_t>(keys_.size() - 1);
  }
  keys_.shrink_to_fit();
}

std::size_t Vocabulary::footprint_bytes() const {
  return lengths_.capacity() + ids_.capacity() * sizeof(std::uint32_t) +
         keys_.capacity() * sizeof(WordKey) + sampler_.footprint_bytes();
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
      file_key(bytes, stream_tag), [&] {
        auto built = std::make_shared<const CorpusFile>(draw(bytes, stream_tag));
        return DatasetCache::Built{built, built->footprint_bytes()};
      });
}

DatasetKey TextGenerator::file_key(Bytes bytes, std::uint64_t stream_tag) const {
  return DatasetKey::corpus_file(seed_, vocabulary_->size(), zipf_s_, bytes, stream_tag);
}

std::string TextGenerator::spell(const CorpusFile& file) const {
  std::string text;
  text.reserve(static_cast<std::size_t>(file.bytes) + 16);
  char letters[kMaxKeyLetters];
  for (const std::uint32_t rank : file.ranks) {
    text.append(letters, spell_key(vocabulary_->key(vocabulary_->id(rank)), letters));
    text.push_back(' ');
  }
  text.resize(static_cast<std::size_t>(file.bytes));
  return text;
}

}  // namespace mrapid::wl
