// Length-prefixed JSON framing over a TcpSocket: every worker/service
// message is one util::Json document serialized compact and prefixed with a
// 4-byte big-endian length. Framing (not newline delimiting) keeps the
// protocol payload-agnostic — metric maps with arbitrary strings, encoded
// plans, multi-megabyte documents — and makes truncated messages detectable
// instead of silently mergeable.
#pragma once

#include "net/socket.h"
#include "util/json.h"

namespace sysnoise::net {

// Frames larger than this are treated as protocol corruption (a stray
// client speaking something else would otherwise ask us to allocate 4 GB).
constexpr std::size_t kMaxFrameBytes = 256u << 20;

// Serialize `message` compact and send it as one frame. Returns false when
// the peer is gone.
bool send_json(TcpSocket& sock, const util::Json& message);

// Receive one frame and parse it. Returns false on EOF/timeout/oversized
// frame; throws std::runtime_error on unparseable payload (a framing error,
// not a clean shutdown). Memory grows with the bytes received, not with the
// length the header declares.
bool recv_json(TcpSocket& sock, util::Json* message);

}  // namespace sysnoise::net
