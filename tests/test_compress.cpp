#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>

#include "provml/common/file_io.hpp"
#include "provml/compress/codec.hpp"
#include "provml/compress/container.hpp"
#include "provml/compress/crc32.hpp"
#include "provml/compress/lzss.hpp"
#include "provml/compress/rle.hpp"
#include "provml/compress/varint.hpp"

namespace provml::compress {
namespace {

Bytes make_bytes(std::initializer_list<int> values) {
  Bytes b;
  for (int v : values) b.push_back(static_cast<std::uint8_t>(v));
  return b;
}

// ------------------------------------------------------------------ varint

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> out;
  varint_append(out, 0);
  varint_append(out, 127);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Varint, RoundTripBoundaries) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
                          std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> out;
    varint_append(out, v);
    std::size_t offset = 0;
    Expected<std::uint64_t> r = varint_read(out, offset);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), v);
    EXPECT_EQ(offset, out.size());
  }
}

TEST(Varint, TruncatedStreamErrors) {
  std::vector<std::uint8_t> out;
  varint_append(out, 1u << 20);
  out.pop_back();
  std::size_t offset = 0;
  EXPECT_FALSE(varint_read(out, offset).ok());
}

TEST(Varint, OverlongStreamErrors) {
  // Eleven continuation bytes exceed what a u64 can hold.
  std::vector<std::uint8_t> bad(11, 0x80);
  bad.push_back(0x01);
  std::size_t offset = 0;
  EXPECT_FALSE(varint_read(bad, offset).ok());
}

TEST(Zigzag, MapsSignAlternately) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Zigzag, RoundTripExtremes) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Delta, EncodeDecodeInverse) {
  const std::vector<std::int64_t> values{5, 7, 7, 100, -3,
                                         std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(delta_decode(delta_encode(values)), values);
}

TEST(PackI64, MonotonicSeriesIsCompact) {
  std::vector<std::int64_t> timestamps;
  for (int i = 0; i < 1000; ++i) timestamps.push_back(1700000000000 + i * 50);
  const auto packed = pack_i64(timestamps);
  EXPECT_LT(packed.size(), timestamps.size() * 3);  // ≤ ~2 bytes/sample + head
  const auto unpacked = unpack_i64(packed, timestamps.size());
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(unpacked.value(), timestamps);
}

TEST(PackI64, TrailingGarbageRejected) {
  auto packed = pack_i64(std::vector<std::int64_t>{1, 2, 3});
  packed.push_back(0);
  EXPECT_FALSE(unpack_i64(packed, 3).ok());
}

TEST(PackI64, EmptySeries) {
  const auto packed = pack_i64(std::vector<std::int64_t>{});
  EXPECT_TRUE(packed.empty());
  EXPECT_TRUE(unpack_i64(packed, 0).ok());
}

// ------------------------------------------------------------------- crc32

TEST(Crc32, KnownVectors) {
  // "123456789" → 0xCBF43926 (standard check value for CRC-32/IEEE).
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data(1000);
  std::mt19937_64 rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  std::uint32_t inc = 0;
  inc = crc32_update(inc, ByteView(data).subspan(0, 400));
  inc = crc32_update(inc, ByteView(data).subspan(400));
  EXPECT_EQ(inc, crc32(data));
}

// --------------------------------------------------------------------- rle

TEST(Rle, CompressesRuns) {
  Bytes input(500, 0xAB);
  RleCodec rle;
  const Bytes enc = rle.encode(input);
  EXPECT_LT(enc.size(), 12u);
  const auto dec = rle.decode(enc, input.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), input);
}

TEST(Rle, HandlesNoRuns) {
  Bytes input;
  for (int i = 0; i < 300; ++i) input.push_back(static_cast<std::uint8_t>(i * 7 + i / 256));
  RleCodec rle;
  const auto dec = rle.decode(rle.encode(input), input.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), input);
}

TEST(Rle, EmptyInput) {
  RleCodec rle;
  EXPECT_TRUE(rle.encode({}).empty());
  EXPECT_TRUE(rle.decode({}, 0).ok());
}

TEST(Rle, RejectsTruncatedStream) {
  RleCodec rle;
  EXPECT_FALSE(rle.decode(make_bytes({0x05}), 6).ok());          // literal run cut
  EXPECT_FALSE(rle.decode(make_bytes({0x80}), 2).ok());          // repeat run cut
  EXPECT_FALSE(rle.decode(make_bytes({0x81, 1}), 2).ok());       // longer than declared
}

// -------------------------------------------------------------------- lzss

TEST(Lzss, CompressesRepetitiveText) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "\"epoch_" + std::to_string(i % 10) + "_loss\": 0.1234,";
  }
  LzssCodec lzss;
  const ByteView view{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
  const Bytes enc = lzss.encode(view);
  EXPECT_LT(enc.size(), text.size() / 3);
  const auto dec = lzss.decode(enc, text.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(std::equal(dec.value().begin(), dec.value().end(), view.begin()));
}

TEST(Lzss, OverlappingMatchExpandsCorrectly) {
  // "abababab..." forces offset < length copies.
  Bytes input;
  for (int i = 0; i < 100; ++i) input.push_back(i % 2 ? 'b' : 'a');
  LzssCodec lzss;
  const auto dec = lzss.decode(lzss.encode(input), input.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), input);
}

TEST(Lzss, RepeatAtExactlyTheWindowDistanceRoundTrips) {
  // A 300-byte block repeated 64 KiB later: the 16-bit offset field cannot
  // encode that distance, so the encoder must not emit it as a match.
  std::mt19937 gen(7);
  Bytes input(65536 + 300);
  for (std::size_t i = 0; i < 65536; ++i) input[i] = static_cast<std::uint8_t>(gen());
  std::copy(input.begin(), input.begin() + 300, input.begin() + 65536);
  LzssCodec lzss;
  const auto dec = lzss.decode(lzss.encode(input), input.size());
  ASSERT_TRUE(dec.ok()) << dec.error().to_string();
  EXPECT_EQ(dec.value(), input);
}

TEST(Lzss, EmptyAndTinyInputs) {
  LzssCodec lzss;
  EXPECT_TRUE(lzss.decode(lzss.encode({}), 0).ok());
  for (std::size_t n = 1; n <= 4; ++n) {
    Bytes input(n, 'x');
    const auto dec = lzss.decode(lzss.encode(input), n);
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.value(), input);
  }
}

TEST(Lzss, RejectsCorruptStreams) {
  LzssCodec lzss;
  EXPECT_FALSE(lzss.decode({}, 1).ok());                                // no flag byte
  EXPECT_FALSE(lzss.decode(make_bytes({0x01, 0x00, 0x00}), 4).ok());    // short match token
  EXPECT_FALSE(lzss.decode(make_bytes({0x01, 0x09, 0x00, 0x00}), 4).ok());  // offset > produced
}

TEST(Shuffle, TransposesAndRestores) {
  Bytes input;
  for (int i = 0; i < 37; ++i) input.push_back(static_cast<std::uint8_t>(i));  // 37 % 8 != 0
  const Bytes shuffled = shuffle_bytes(input, 8);
  EXPECT_NE(shuffled, input);
  EXPECT_EQ(unshuffle_bytes(shuffled, 8), input);
  const Bytes empty;
  EXPECT_TRUE(shuffle_bytes(empty, 8).empty());
  EXPECT_TRUE(unshuffle_bytes(empty, 8).empty());
}

TEST(Shuffle, ElementSizeOneIsIdentity) {
  Bytes input = make_bytes({1, 2, 3});
  EXPECT_EQ(shuffle_bytes(input, 1), input);
}

TEST(ShuffleLzss, BeatsPlainLzssOnSmoothDoubles) {
  std::vector<double> series;
  for (int i = 0; i < 4096; ++i) series.push_back(2.5 + 1e-4 * i);
  ByteView view{reinterpret_cast<const std::uint8_t*>(series.data()),
                series.size() * sizeof(double)};
  const Bytes plain = LzssCodec{}.encode(view);
  const Bytes shuffled = ShuffleLzssCodec{8}.encode(view);
  EXPECT_LT(shuffled.size(), plain.size());
  const auto dec = ShuffleLzssCodec{8}.decode(shuffled, view.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(std::equal(dec.value().begin(), dec.value().end(), view.begin()));
}

// ----------------------------------------------------------------- registry

TEST(CodecRegistry, BuiltinsPresent) {
  auto& reg = CodecRegistry::global();
  for (const char* name : {"raw", "rle", "lzss", "shuffle+lzss"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_NE(reg.create(name), nullptr) << name;
  }
  EXPECT_EQ(reg.create("bogus"), nullptr);
}

TEST(CodecRegistry, PluginRegistration) {
  CodecRegistry reg;
  reg.register_codec("custom-raw", [] { return std::make_unique<IdentityCodec>(); });
  EXPECT_TRUE(reg.contains("custom-raw"));
  const auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "custom-raw"), names.end());
}

// ---------------------------------------------------------------- container

TEST(Container, PackUnpackRoundTrip) {
  Bytes payload;
  for (int i = 0; i < 10000; ++i) payload.push_back(static_cast<std::uint8_t>(i % 17));
  for (const char* codec : {"raw", "rle", "lzss", "shuffle+lzss"}) {
    Expected<Bytes> packed = pack(payload, codec);
    ASSERT_TRUE(packed.ok()) << codec;
    Expected<Bytes> unpacked = unpack(packed.value());
    ASSERT_TRUE(unpacked.ok()) << codec << ": " << unpacked.error().to_string();
    EXPECT_EQ(unpacked.value(), payload) << codec;
  }
}

TEST(Container, InspectReportsSizes) {
  Bytes payload(5000, 'z');
  Expected<Bytes> packed = pack(payload, "lzss");
  ASSERT_TRUE(packed.ok());
  Expected<ContainerInfo> info = inspect(packed.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().codec, "lzss");
  EXPECT_EQ(info.value().raw_size, payload.size());
  EXPECT_LT(info.value().stored_size, 200u);
}

TEST(Container, DetectsCorruption) {
  Bytes payload(100, 'q');
  Bytes packed = pack(payload, "raw").take();
  packed[packed.size() - 1] ^= 0xFF;  // flip a payload byte → CRC mismatch
  EXPECT_FALSE(unpack(packed).ok());

  Bytes truncated = pack(payload, "raw").take();
  truncated.pop_back();
  EXPECT_FALSE(unpack(truncated).ok());

  Bytes bad_magic = pack(payload, "raw").take();
  bad_magic[0] = 'X';
  EXPECT_FALSE(unpack(bad_magic).ok());
}

TEST(Container, UnknownCodecRejected) {
  EXPECT_FALSE(pack(Bytes{1, 2, 3}, "no-such").ok());
}

TEST(Container, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "provml_container";
  fs::create_directories(dir);
  const std::string src = (dir / "src.bin").string();
  const std::string dst = (dir / "dst.pmlc").string();
  Bytes payload(4096, 'r');
  ASSERT_TRUE(io::write_file_atomic(src, payload).ok());
  ASSERT_TRUE(pack_file(src, dst, "lzss").ok());
  EXPECT_LT(fs::file_size(dst), payload.size() / 4);
  Expected<Bytes> back = unpack_file(dst);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
  fs::remove_all(dir);
}

// ----------------------------------------------------------- property sweep

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

Bytes random_payload(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> mode(0, 3);
  std::uniform_int_distribution<std::size_t> len(0, 20000);
  const std::size_t n = len(rng);
  Bytes data(n);
  switch (mode(rng)) {
    case 0:  // uniform random (incompressible)
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      break;
    case 1:  // long runs
      for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>((i / 97) % 5);
      break;
    case 2: {  // repeated phrase (dictionary-friendly)
      const char* phrase = "loss=0.4321;energy=17.5;";
      for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(phrase[i % 24]);
      break;
    }
    default: {  // smooth doubles, bit-cast
      for (std::size_t i = 0; i + 8 <= n; i += 8) {
        const double v = std::sin(static_cast<double>(i) * 0.001);
        std::memcpy(data.data() + i, &v, 8);
      }
      break;
    }
  }
  return data;
}

TEST_P(CodecRoundTrip, DecodeInvertsEncode) {
  const auto& [codec_name, seed] = GetParam();
  std::mt19937_64 rng(seed);
  const auto codec = CodecRegistry::global().create(codec_name);
  ASSERT_NE(codec, nullptr);
  for (int round = 0; round < 5; ++round) {
    const Bytes payload = random_payload(rng);
    const Bytes encoded = codec->encode(payload);
    const Expected<Bytes> decoded = codec->decode(encoded, payload.size());
    ASSERT_TRUE(decoded.ok()) << codec_name << ": " << decoded.error().to_string();
    ASSERT_EQ(decoded.value(), payload) << codec_name << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip,
    ::testing::Combine(::testing::Values("raw", "rle", "lzss", "shuffle+lzss"),
                       ::testing::Range(0u, 8u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '+', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace provml::compress
