// Self-describing compressed container. Layout (little-endian):
//   magic   "PMLC" (4 bytes)
//   version u8 (currently 1)
//   codec   u8 name length, then name bytes
//   raw_size     varint (decoded payload size)
//   payload_size varint (encoded payload size)
//   crc32   u32 of the *decoded* payload
//   payload bytes
// Used for ".json + compressed" measurements (Table 1) and for any artifact
// that must carry its codec with it.
#pragma once

#include <string>

#include "provml/compress/codec.hpp"

namespace provml::compress {

struct ContainerInfo {
  std::string codec;
  std::size_t raw_size = 0;
  std::size_t stored_size = 0;  ///< encoded payload bytes, excludes header
};

/// Encodes `payload` with the named codec (looked up in `registry`) and
/// wraps it in a container frame.
[[nodiscard]] Expected<Bytes> pack(ByteView payload, const std::string& codec_name,
                                   const CodecRegistry& registry = CodecRegistry::global());

/// Validates the frame + CRC and returns the decoded payload.
[[nodiscard]] Expected<Bytes> unpack(ByteView container,
                                     const CodecRegistry& registry = CodecRegistry::global());

/// Reads only the header (cheap size/codec inspection without decoding).
[[nodiscard]] Expected<ContainerInfo> inspect(ByteView container);

/// Convenience: pack bytes to a file / unpack a file to bytes.
[[nodiscard]] Status pack_file(const std::string& src_path, const std::string& dst_path,
                               const std::string& codec_name);
[[nodiscard]] Expected<Bytes> unpack_file(const std::string& path);

}  // namespace provml::compress
