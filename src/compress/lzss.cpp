#include "provml/compress/lzss.hpp"

#include <array>
#include <cstring>

#include "provml/common/fault_inject.hpp"

namespace provml::compress {
namespace {

constexpr std::size_t kWindowSize = 1u << 16;  // 64 KiB sliding window
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kMaxChainLength = 64;  // match-finder effort bound
// Up-front allocation ceiling for decode: a plausible-but-huge declared
// size grows incrementally instead of reserving gigabytes at once.
constexpr std::size_t kReserveCap = std::size_t{1} << 26;  // 64 MiB

[[nodiscard]] inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of a 3-byte window.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

struct Match {
  std::size_t offset = 0;  // distance back from current position, 1-based
  std::size_t length = 0;
};

/// Hash-chain match finder over the sliding window.
class MatchFinder {
 public:
  explicit MatchFinder(ByteView data) : data_(data) {
    head_.fill(kNoPos);
    prev_.assign(data.size(), kNoPos);
  }

  void insert(std::size_t pos) {
    if (pos + kMinMatch > data_.size()) return;
    const std::uint32_t h = hash3(data_.data() + pos);
    prev_[pos] = head_[h];
    head_[h] = pos;
  }

  [[nodiscard]] Match find(std::size_t pos) const {
    Match best;
    if (pos + kMinMatch > data_.size()) return best;
    const std::size_t limit = std::min(kMaxMatch, data_.size() - pos);
    const std::uint32_t h = hash3(data_.data() + pos);
    std::size_t candidate = head_[h];
    std::size_t chain = 0;
    while (candidate != kNoPos && chain < kMaxChainLength) {
      // Chains are position-ordered. The 16-bit offset field holds
      // distances up to kWindowSize - 1 (kWindowSize would encode as 0).
      if (pos - candidate >= kWindowSize) break;
      const std::uint8_t* a = data_.data() + pos;
      const std::uint8_t* b = data_.data() + candidate;
      std::size_t len = 0;
      while (len < limit && a[len] == b[len]) ++len;
      if (len > best.length) {
        best.length = len;
        best.offset = pos - candidate;
        if (len == limit) break;
      }
      candidate = prev_[candidate];
      ++chain;
    }
    if (best.length < kMinMatch) best.length = 0;
    return best;
  }

 private:
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  ByteView data_;
  std::array<std::size_t, kHashSize> head_{};
  std::vector<std::size_t> prev_;
};

/// Accumulates tokens under the flag-byte framing.
class TokenWriter {
 public:
  explicit TokenWriter(Bytes& out) : out_(out) {}

  void literal(std::uint8_t byte) {
    begin_token(false);
    out_.push_back(byte);
  }

  void match(std::size_t offset, std::size_t length) {
    begin_token(true);
    out_.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out_.push_back(static_cast<std::uint8_t>((offset >> 8) & 0xFF));
    out_.push_back(static_cast<std::uint8_t>(length - kMinMatch));
  }

 private:
  void begin_token(bool is_match) {
    if (bit_ == 8) {
      flag_pos_ = out_.size();
      out_.push_back(0);
      bit_ = 0;
    }
    if (is_match) out_[flag_pos_] |= static_cast<std::uint8_t>(1u << bit_);
    ++bit_;
  }

  Bytes& out_;
  std::size_t flag_pos_ = 0;
  int bit_ = 8;
};

}  // namespace

Bytes LzssCodec::encode(ByteView input) const {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  TokenWriter writer(out);
  MatchFinder finder(input);

  std::size_t pos = 0;
  while (pos < input.size()) {
    Match m = finder.find(pos);
    if (m.length >= kMinMatch) {
      // One-step lazy evaluation: prefer a strictly longer match at pos+1.
      if (pos + 1 < input.size()) {
        finder.insert(pos);
        const Match next = finder.find(pos + 1);
        if (next.length > m.length + 1) {
          writer.literal(input[pos]);
          ++pos;
          continue;
        }
      } else {
        finder.insert(pos);
      }
      writer.match(m.offset, m.length);
      // First position was inserted above; add the rest of the match.
      for (std::size_t i = 1; i < m.length; ++i) finder.insert(pos + i);
      pos += m.length;
    } else {
      finder.insert(pos);
      writer.literal(input[pos]);
      ++pos;
    }
  }
  return out;
}

Expected<Bytes> LzssCodec::decode(ByteView input, std::size_t decoded_size) const {
  // `decoded_size` comes from an untrusted container header. A match token
  // (3 bytes + 1/8 flag byte) expands to at most kMaxMatch bytes, so any
  // claimed size beyond input*kMaxMatch is forged — reject it before
  // allocating, instead of letting a 16-byte file demand gigabytes.
  if (decoded_size > input.size() * kMaxMatch) {
    return Error{"declared size exceeds maximum expansion", "lzss"};
  }
  if (fault::triggered("compress.decode_alloc")) {
    return Error{"output allocation failed (injected fault)", "lzss"};
  }
  Bytes out;
  out.reserve(std::min(decoded_size, kReserveCap));
  std::size_t i = 0;
  std::uint8_t flags = 0;
  int bit = 8;
  while (out.size() < decoded_size) {
    if (bit == 8) {
      if (i >= input.size()) return Error{"truncated flag byte", "lzss"};
      flags = input[i++];
      bit = 0;
    }
    const bool is_match = (flags >> bit) & 1;
    ++bit;
    if (!is_match) {
      if (i >= input.size()) return Error{"truncated literal", "lzss"};
      out.push_back(input[i++]);
      continue;
    }
    if (i + 3 > input.size()) return Error{"truncated match token", "lzss"};
    const std::size_t offset = static_cast<std::size_t>(input[i]) |
                               (static_cast<std::size_t>(input[i + 1]) << 8);
    const std::size_t length = static_cast<std::size_t>(input[i + 2]) + kMinMatch;
    i += 3;
    if (offset == 0 || offset > out.size()) return Error{"match offset out of range", "lzss"};
    if (out.size() + length > decoded_size) return Error{"match overruns output", "lzss"};
    // Byte-by-byte copy: overlapping matches (offset < length) are legal.
    std::size_t src = out.size() - offset;
    for (std::size_t k = 0; k < length; ++k) out.push_back(out[src + k]);
  }
  return out;
}

Bytes shuffle_bytes(ByteView input, std::size_t element_size) {
  if (element_size <= 1) return Bytes(input.begin(), input.end());
  const std::size_t elements = input.size() / element_size;
  const std::size_t body = elements * element_size;
  Bytes out(input.size());
  for (std::size_t plane = 0; plane < element_size; ++plane) {
    for (std::size_t e = 0; e < elements; ++e) {
      out[plane * elements + e] = input[e * element_size + plane];
    }
  }
  if (body < input.size()) {
    std::memcpy(out.data() + body, input.data() + body, input.size() - body);
  }
  return out;
}

Bytes unshuffle_bytes(ByteView input, std::size_t element_size) {
  if (element_size <= 1) return Bytes(input.begin(), input.end());
  const std::size_t elements = input.size() / element_size;
  const std::size_t body = elements * element_size;
  Bytes out(input.size());
  for (std::size_t plane = 0; plane < element_size; ++plane) {
    for (std::size_t e = 0; e < elements; ++e) {
      out[e * element_size + plane] = input[plane * elements + e];
    }
  }
  if (body < input.size()) {
    std::memcpy(out.data() + body, input.data() + body, input.size() - body);
  }
  return out;
}

Bytes ShuffleLzssCodec::encode(ByteView input) const {
  const Bytes shuffled = shuffle_bytes(input, element_size_);
  return LzssCodec{}.encode(shuffled);
}

Expected<Bytes> ShuffleLzssCodec::decode(ByteView input, std::size_t decoded_size) const {
  Expected<Bytes> shuffled = LzssCodec{}.decode(input, decoded_size);
  if (!shuffled.ok()) return shuffled;
  return unshuffle_bytes(shuffled.value(), element_size_);
}

}  // namespace provml::compress
