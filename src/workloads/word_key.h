#pragma once

// A word of at most 10 letters a-z packed into one 64-bit key. Letters
// take five bits each (a=1 ... z=26) from the top bit down, with zeros
// after the word's end, and the length sits in the low four bits:
//
//   bits 63..14  letters 0..9, 5 bits each, first letter highest
//   bits 13..4   zero
//   bits  3..0   length
//
// Keys compare exactly as the spellings do: the first differing letter
// decides, and a word that ends first has a 0 where the other has a
// letter, so a prefix sorts before its extensions. Equal keys mean equal
// spellings, so keys can stand in for words in sorting, merging and
// equality, and the spelling is recovered with shifts.
//
// Every vocabulary word fits (Vocabulary asserts it), and so does every
// fragment a split boundary cuts from one.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mrapid::wl {

using WordKey = std::uint64_t;

inline constexpr std::size_t kMaxKeyLetters = 10;

namespace word_key_detail {
inline constexpr int kLetterBits = 5;
inline constexpr WordKey kLengthMask = 0xF;
constexpr int letter_shift(std::size_t i) {
  return 64 - kLetterBits * static_cast<int>(i + 1);
}
}  // namespace word_key_detail

// The key of `word`, which must be at most kMaxKeyLetters letters a-z.
constexpr WordKey word_key(std::string_view word) {
  using namespace word_key_detail;
  assert(word.size() <= kMaxKeyLetters);
  WordKey key = word.size();
  for (std::size_t i = 0; i < word.size(); ++i) {
    assert(word[i] >= 'a' && word[i] <= 'z');
    key |= static_cast<WordKey>(word[i] - 'a' + 1) << letter_shift(i);
  }
  return key;
}

constexpr std::size_t key_length(WordKey key) {
  return static_cast<std::size_t>(key & word_key_detail::kLengthMask);
}

// The key of letters [pos, pos + length) of `key`'s word.
constexpr WordKey key_slice(WordKey key, std::size_t pos, std::size_t length) {
  using namespace word_key_detail;
  assert(pos + length <= key_length(key));
  if (length == 0) return 0;
  const WordKey letters = (key & ~kLengthMask) << (kLetterBits * static_cast<int>(pos));
  const WordKey kept = ~WordKey{0} << letter_shift(length - 1);
  return (letters & kept) | length;
}

// Letter `i` of `key`'s word, for i < key_length(key).
constexpr char key_letter(WordKey key, std::size_t i) {
  using namespace word_key_detail;
  return static_cast<char>('a' - 1 + ((key >> letter_shift(i)) & 31));
}

// Writes `key`'s letters to `out` (room for kMaxKeyLetters) and
// returns how many.
inline std::size_t spell_key(WordKey key, char* out) {
  // A key's length field is at most kMaxKeyLetters; the bound lets the
  // compiler see that `out` is never overrun.
  const std::size_t length = std::min(key_length(key), kMaxKeyLetters);
  for (std::size_t i = 0; i < length; ++i) out[i] = key_letter(key, i);
  return length;
}

inline std::string key_string(WordKey key) {
  char letters[kMaxKeyLetters];
  return std::string(letters, spell_key(key, letters));
}

}  // namespace mrapid::wl
