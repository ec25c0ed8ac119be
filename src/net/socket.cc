#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/fault.h"
#include "obs/metrics.h"

namespace ecomp::net {
namespace {

[[noreturn]] void fail(const std::string& what) {
  if (errno == EAGAIN || errno == EWOULDBLOCK) throw TimeoutError(what);
  throw Error("net: " + what + ": " + std::strerror(errno));
}

void set_timeout(int fd, int which, std::uint32_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof tv) < 0)
    fail("setsockopt timeout");
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
    fault_ = std::move(o.fault_);
    bytes_sent_ = o.bytes_sent_;
    bytes_recv_ = o.bytes_recv_;
    o.bytes_sent_ = 0;
    o.bytes_recv_ = 0;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(ByteSpan data) const {
  Bytes faulted;
  std::size_t send_n = data.size();
  FaultKind abort_after = FaultKind::None;
  if (fault_) {
    faulted.assign(data.begin(), data.end());
    std::uint32_t sleep_ms = 0;
    send_n = fault_->plan_send(faulted.data(), faulted.size(), &sleep_ms,
                               &abort_after);
    if (sleep_ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    data = ByteSpan(faulted.data(), send_n);
  }

  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_sent_ += data.size();
  ECOMP_COUNT_N("net.bytes_sent", data.size());
  ECOMP_COUNT("net.sends");

  if (abort_after == FaultKind::Truncate) {
    // Early FIN: the peer sees a clean, but short, stream.
    ::shutdown(fd_, SHUT_WR);
    throw FaultError("injected truncate");
  }
  if (abort_after == FaultKind::Drop) {
    // SO_LINGER with zero timeout makes the eventual close send RST.
    struct linger lg {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    throw FaultError("injected drop");
  }
}

std::size_t Socket::recv_some(std::uint8_t* dst, std::size_t max) const {
  while (true) {
    const ssize_t n = ::recv(fd_, dst, max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("recv");
    }
    bytes_recv_ += static_cast<std::uint64_t>(n);
    ECOMP_COUNT_N("net.bytes_recv", n);
    return static_cast<std::size_t>(n);
  }
}

Bytes Socket::recv_exact(std::size_t n) const {
  Bytes out(n);
  std::size_t off = 0;
  while (off < n) {
    const std::size_t got = recv_some(out.data() + off, n - off);
    if (got == 0) throw Error("net: peer closed mid-message");
    off += got;
  }
  return out;
}

void Socket::set_recv_timeout_ms(std::uint32_t ms) const {
  set_timeout(fd_, SO_RCVTIMEO, ms);
}

void Socket::set_send_timeout_ms(std::uint32_t ms) const {
  set_timeout(fd_, SO_SNDTIMEO, ms);
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sock_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    fail("bind");
  // Backlog sized for the load tests' 100-client bursts: the admission
  // layer (not the kernel queue) is what should refuse excess work.
  if (::listen(fd, 128) < 0) fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail("getsockname");
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept() const {
  while (true) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      fail("accept");
    }
    return Socket(fd);
  }
}

Socket connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  Socket s(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    fail("connect");
  ECOMP_COUNT("net.connections");
  return s;
}

void send_frame_header(const Socket& s, std::uint64_t payload_size) {
  if (payload_size > kMaxFramedPayload) throw Error("net: frame too large");
  std::uint8_t hdr[4];
  for (int i = 0; i < 4; ++i)
    hdr[i] = static_cast<std::uint8_t>((payload_size >> (8 * i)) & 0xff);
  s.send_all(ByteSpan(hdr, 4));
}

std::uint32_t recv_frame_header(const Socket& s) {
  const Bytes hdr = s.recv_exact(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  return v;
}

void send_frame(const Socket& s, ByteSpan payload) {
  send_frame_header(s, payload.size());
  s.send_all(payload);
}

Bytes recv_frame(const Socket& s, std::uint32_t max_size) {
  const std::uint32_t n = recv_frame_header(s);
  if (n > max_size) throw Error("net: frame length exceeds cap");
  return s.recv_exact(n);
}

}  // namespace ecomp::net
