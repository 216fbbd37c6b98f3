#include "net/socket.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace sysnoise::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

bool parse_int(const std::string& text, int min, int max, int* out) {
  const bool negative = min < 0 && !text.empty() && text[0] == '-';
  std::size_t i = negative ? 1 : 0;
  if (i == text.size()) return false;
  long long value = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
    if (value > (1LL << 31)) return false;  // past every int, before overflow
  }
  if (negative) value = -value;
  if (value < min || value > max) return false;
  *out = static_cast<int>(value);
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t min, std::uint64_t max,
               std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

bool parse_double(const std::string& text, double min, double max,
                  double* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789.eE+-") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value) || value < min || value > max)
    return false;
  *out = value;
  return true;
}

bool parse_host_port(const std::string& hostport, std::string* host,
                     int* port) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      !parse_int(hostport.substr(colon + 1), 1, 65535, port))
    return false;
  *host = hostport.substr(0, colon);
  return true;
}

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::~TcpSocket() { close(); }

std::string TcpSocket::peer() const {
  if (fd_ < 0) return "?";
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET)
    return "?";
  char ip[INET_ADDRSTRLEN] = {0};
  if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip)) == nullptr)
    return "?";
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket TcpSocket::connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("TcpSocket::connect: cannot resolve " + host +
                             ": " + gai_strerror(rc));
  int fd = -1;
  int last_errno = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = last_errno;
    throw_errno("TcpSocket::connect: cannot connect to " + host + ":" +
                service);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(fd);
}

void TcpSocket::set_recv_timeout_ms(int ms) {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool TcpSocket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpSocket::recv_all(void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd_, p, size, 0);
    if (n == 0) return false;  // orderly shutdown
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // error or SO_RCVTIMEO expiry
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

TcpListener TcpListener::listen(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("TcpListener::listen: socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("TcpListener::listen: bind to port " + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("TcpListener::listen: listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("TcpListener::listen: getsockname");
  }
  TcpListener out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

TcpSocket TcpListener::accept(int timeout_ms) {
  if (fd_ < 0) return TcpSocket();
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0) return TcpSocket();  // timeout or error: caller re-checks
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return TcpSocket();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(fd);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sysnoise::net
