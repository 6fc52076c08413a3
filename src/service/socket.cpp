#include "service/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace wecc::service::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  // Best-effort: the request/reply pattern suffers badly under Nagle, but
  // a failure to disable it is not fatal.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

bool Socket::recv_all(void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a record boundary
      throw std::runtime_error("recv: connection closed mid-record");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("getaddrinfo failed for " + host);
  }
  Socket sock(::socket(res->ai_family, res->ai_socktype, res->ai_protocol));
  if (!sock.valid()) {
    ::freeaddrinfo(res);
    throw_errno("socket");
  }
  const int rc = ::connect(sock.fd(), res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) throw_errno("connect to " + host + ":" + service);
  set_nodelay(sock.fd());
  return sock;
}

Socket listen_on(const std::string& address, std::uint16_t port,
                 int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket");
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad bind address: " + address);
  }
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen");
  return sock;
}

Socket accept_on(Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // EINVAL: the listener was shut down (its owner closes it only after
    // this loop returns) — the orderly stop signal, not an error.
    return Socket{};
  }
}

std::uint16_t local_port(const Socket& sock) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace wecc::service::net
