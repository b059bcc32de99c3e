#include "provml/compress/container.hpp"

#include <cstring>

#include "provml/common/file_io.hpp"
#include "provml/compress/crc32.hpp"
#include "provml/compress/lzss.hpp"
#include "provml/compress/rle.hpp"
#include "provml/compress/varint.hpp"

namespace provml::compress {
namespace {

constexpr char kMagic[4] = {'P', 'M', 'L', 'C'};
constexpr std::uint8_t kVersion = 1;

struct Header {
  std::string codec;
  std::uint64_t raw_size = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  std::size_t header_bytes = 0;
};

Expected<Header> parse_header(ByteView data) {
  if (data.size() < 6 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Error{"bad container magic", "container"};
  }
  if (data[4] != kVersion) return Error{"unsupported container version", "container"};
  const std::size_t name_len = data[5];
  std::size_t offset = 6;
  if (offset + name_len > data.size()) return Error{"truncated codec name", "container"};
  Header h;
  h.codec.assign(reinterpret_cast<const char*>(data.data()) + offset, name_len);
  offset += name_len;
  Expected<std::uint64_t> raw = varint_read(data, offset);
  if (!raw.ok()) return raw.error();
  Expected<std::uint64_t> stored = varint_read(data, offset);
  if (!stored.ok()) return stored.error();
  if (offset + 4 > data.size()) return Error{"truncated checksum", "container"};
  std::uint32_t crc = 0;
  std::memcpy(&crc, data.data() + offset, 4);
  offset += 4;
  h.raw_size = raw.value();
  h.payload_size = stored.value();
  h.crc = crc;
  h.header_bytes = offset;
  return h;
}

}  // namespace

CodecRegistry& CodecRegistry::global() {
  static CodecRegistry registry;  // not movable (owns a mutex): fill in place
  static const bool initialized = [] {
    registry.register_codec("raw", [] { return std::make_unique<IdentityCodec>(); });
    registry.register_codec("rle", [] { return std::make_unique<RleCodec>(); });
    registry.register_codec("lzss", [] { return std::make_unique<LzssCodec>(); });
    registry.register_codec("shuffle+lzss",
                            [] { return std::make_unique<ShuffleLzssCodec>(8); });
    return true;
  }();
  (void)initialized;
  return registry;
}

void CodecRegistry::register_codec(const std::string& name, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = std::move(factory);
}

std::unique_ptr<Codec> CodecRegistry::create(const std::string& name) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    factory = it->second;  // copy: run the factory outside the lock
  }
  return factory();
}

bool CodecRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

std::vector<std::string> CodecRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

Expected<Bytes> pack(ByteView payload, const std::string& codec_name,
                     const CodecRegistry& registry) {
  const std::unique_ptr<Codec> codec = registry.create(codec_name);
  if (!codec) return Error{"unknown codec: " + codec_name, "container"};
  if (codec_name.size() > 255) return Error{"codec name too long", "container"};

  const Bytes encoded = codec->encode(payload);
  Bytes out;
  out.reserve(encoded.size() + codec_name.size() + 24);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(codec_name.size()));
  out.insert(out.end(), codec_name.begin(), codec_name.end());
  varint_append(out, payload.size());
  varint_append(out, encoded.size());
  const std::uint32_t crc = crc32(payload);
  const auto* crc_bytes = reinterpret_cast<const std::uint8_t*>(&crc);
  out.insert(out.end(), crc_bytes, crc_bytes + 4);
  out.insert(out.end(), encoded.begin(), encoded.end());
  return out;
}

Expected<Bytes> unpack(ByteView container, const CodecRegistry& registry) {
  Expected<Header> header = parse_header(container);
  if (!header.ok()) return header.error();
  const Header& h = header.value();
  if (h.header_bytes + h.payload_size != container.size()) {
    return Error{"container payload size mismatch", "container"};
  }
  const std::unique_ptr<Codec> codec = registry.create(h.codec);
  if (!codec) return Error{"unknown codec: " + h.codec, "container"};
  Expected<Bytes> decoded =
      codec->decode(container.subspan(h.header_bytes), static_cast<std::size_t>(h.raw_size));
  if (!decoded.ok()) return decoded;
  if (crc32(decoded.value()) != h.crc) return Error{"checksum mismatch", "container"};
  return decoded;
}

Expected<ContainerInfo> inspect(ByteView container) {
  Expected<Header> header = parse_header(container);
  if (!header.ok()) return header.error();
  const Header& h = header.value();
  return ContainerInfo{h.codec, static_cast<std::size_t>(h.raw_size),
                       static_cast<std::size_t>(h.payload_size)};
}

Status pack_file(const std::string& src_path, const std::string& dst_path,
                 const std::string& codec_name) {
  Expected<Bytes> data = io::read_file(src_path);
  if (!data.ok()) return data.error();
  Expected<Bytes> packed = pack(data.value(), codec_name);
  if (!packed.ok()) return packed.error();
  return io::write_file_atomic(dst_path, packed.value());
}

Expected<Bytes> unpack_file(const std::string& path) {
  Expected<Bytes> data = io::read_file(path);
  if (!data.ok()) return data;
  return unpack(data.value());
}

}  // namespace provml::compress
