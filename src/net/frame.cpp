#include "net/frame.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace sysnoise::net {

bool send_json(TcpSocket& sock, const util::Json& message) {
  const std::string payload = message.dump();
  const auto size = static_cast<std::uint32_t>(payload.size());
  unsigned char header[4] = {
      static_cast<unsigned char>(size >> 24),
      static_cast<unsigned char>(size >> 16),
      static_cast<unsigned char>(size >> 8),
      static_cast<unsigned char>(size),
  };
  return sock.send_all(header, sizeof(header)) &&
         sock.send_all(payload.data(), payload.size());
}

bool recv_json(TcpSocket& sock, util::Json* message) {
  unsigned char header[4];
  if (!sock.recv_all(header, sizeof(header))) return false;
  const std::uint32_t size = (static_cast<std::uint32_t>(header[0]) << 24) |
                             (static_cast<std::uint32_t>(header[1]) << 16) |
                             (static_cast<std::uint32_t>(header[2]) << 8) |
                             static_cast<std::uint32_t>(header[3]);
  if (size > kMaxFrameBytes) return false;
  // The declared length is a claim, not a commitment: grow the buffer only
  // as bytes arrive, so a header asking for kMaxFrameBytes costs one chunk
  // until the peer actually sends that much.
  constexpr std::size_t kChunkBytes = 1u << 20;
  std::string payload;
  while (payload.size() < size) {
    const std::size_t have = payload.size();
    const std::size_t n = std::min<std::size_t>(kChunkBytes, size - have);
    payload.resize(have + n);
    if (!sock.recv_all(payload.data() + have, n)) return false;
  }
  *message = util::Json::parse(payload);
  return true;
}

}  // namespace sysnoise::net
