// Minimal blocking TCP wrapper for the distributed sweep runtime: an
// RAII-owned connected socket (TcpSocket) and a listening socket
// (TcpListener) with a poll-based accept timeout so accept loops can check
// a stop flag instead of blocking forever. IPv4, Linux-only, no TLS — the
// service/worker protocol is trusted-network tooling, like the shard files
// it replaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sysnoise::net {

// Strict decimal integer: `text` must be all digits, with one leading '-'
// accepted only when `min` is negative, and the value must lie in
// [min, max]. Returns false otherwise — empty, "1O", "2x", "+3", overflow —
// so a typo'd integer flag is a usage error, never a silent atoi prefix.
// Behind the benches' dist flags, sysnoise_ctl's and the port below.
bool parse_int(const std::string& text, int min, int max, int* out);

// parse_int's rules for unsigned 64-bit values (seeds, capacities): digits
// only — no sign, so "-1" is an error, not a wrapped SIZE_MAX — with no
// overflow past UINT64_MAX and the value in [min, max].
bool parse_u64(const std::string& text, std::uint64_t min, std::uint64_t max,
               std::uint64_t* out);

// Strict decimal floating-point number ("2", "-0.5", "1e3", ".25"): `text`
// must be non-empty, hold only digits, '.', 'e'/'E' and signs, parse
// completely, be finite (no nan/inf, no overflow or underflow to a
// denormal) and lie in [min, max]. Returns false otherwise and never writes
// *out then — the atof of a typo'd flag ("2ms") would silently read 2.
bool parse_double(const std::string& text, double min, double max,
                  double* out);

// Parse "host:port" (the last ':' splits, so bare IPv6 is out of scope —
// the runtime is IPv4-only). Returns false unless the host is non-empty and
// the port is all digits in [1, 65535]. The one parser behind every
// --connect flag, so they cannot drift apart.
bool parse_host_port(const std::string& hostport, std::string* host,
                     int* port);

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Connect to host:port ("127.0.0.1", "some-host"). Throws
  // std::runtime_error on resolution/connection failure.
  static TcpSocket connect(const std::string& host, int port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // The peer's "ip:port" (for logs and the sweep service's worker roster);
  // "?" when the socket is invalid or the peer is already gone.
  std::string peer() const;

  // Cap how long a recv may wait for bytes (0 = wait forever). The sweep
  // service uses this as its dead-worker tripwire: a live worker is
  // never silent for longer than its heartbeat interval.
  void set_recv_timeout_ms(int ms);

  // Send the whole buffer (retrying partial writes, SIGPIPE suppressed).
  // Returns false when the peer is gone.
  bool send_all(const void* data, std::size_t size);
  // Receive exactly `size` bytes. Returns false on EOF, timeout or error.
  bool recv_all(void* data, std::size_t size);

  void close();

 private:
  int fd_ = -1;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Bind + listen on all interfaces. `port` 0 picks an ephemeral port;
  // port() reports the actual one. Throws std::runtime_error on failure.
  static TcpListener listen(int port);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }

  // Accept one connection, waiting at most `timeout_ms`. Returns an invalid
  // socket on timeout or on a closed listener.
  TcpSocket accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace sysnoise::net
