// Minimal RAII wrappers over POSIX TCP sockets (loopback use). The
// examples run a real proxy server and client over these; energy is
// always computed by the simulator, but the protocol and the streaming
// decoder run for real.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/bytes.h"

namespace ecomp::net {

class FaultChannel;

/// A socket deadline expired (SO_RCVTIMEO / SO_SNDTIMEO). Distinct
/// from Error so retry loops can treat stalls like any other transient
/// failure while tests can still tell them apart.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what)
      : Error("net: timed out: " + what) {}
};

/// Owns a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& o) noexcept
      : fd_(o.fd_),
        fault_(std::move(o.fault_)),
        bytes_sent_(o.bytes_sent_),
        bytes_recv_(o.bytes_recv_) {
    o.fd_ = -1;
    o.bytes_sent_ = 0;
    o.bytes_recv_ = 0;
  }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Send the whole buffer; throws Error on failure, TimeoutError when
  /// a send deadline expires.
  void send_all(ByteSpan data) const;
  /// Receive up to `max` bytes; returns 0 on orderly shutdown. Throws
  /// TimeoutError when a receive deadline expires.
  std::size_t recv_some(std::uint8_t* dst, std::size_t max) const;
  /// Receive exactly n bytes; throws if the peer closes early.
  Bytes recv_exact(std::size_t n) const;

  /// Arm SO_RCVTIMEO / SO_SNDTIMEO; 0 clears the deadline.
  void set_recv_timeout_ms(std::uint32_t ms) const;
  void set_send_timeout_ms(std::uint32_t ms) const;

  /// Attach a fault channel (testing): every send is routed through it
  /// and may be delayed, corrupted, or cut short. An armed Drop/Truncate
  /// fault makes send_all throw FaultError after the planned prefix,
  /// with the socket set up so closing it RSTs (Drop) or FINs (Truncate)
  /// the peer.
  void inject(std::shared_ptr<FaultChannel> fault) {
    fault_ = std::move(fault);
  }

  void close();

  /// Per-socket payload byte tallies (what actually went over the
  /// wire, faults included). Plain counters: each direction of a socket
  /// is driven by one thread at a time, matching how every caller in
  /// the tree already uses sockets.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_recv() const { return bytes_recv_; }

 private:
  int fd_ = -1;
  std::shared_ptr<FaultChannel> fault_;
  mutable std::uint64_t bytes_sent_ = 0;
  mutable std::uint64_t bytes_recv_ = 0;
};

/// Listening socket bound to 127.0.0.1. Port 0 picks a free port.
class Listener {
 public:
  explicit Listener(std::uint16_t port = 0);
  std::uint16_t port() const { return port_; }
  Socket accept() const;

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:port.
Socket connect_local(std::uint16_t port);

/// Control frames (requests, status lines) are short strings; any
/// length prefix beyond this is a corrupted or hostile header, not a
/// request, and must be rejected before the allocation it asks for.
inline constexpr std::uint32_t kMaxControlFrame = 64 * 1024;

/// A framed payload's length must fit the u32 prefix: 4 GiB - 1 bytes.
inline constexpr std::uint64_t kMaxFramedPayload = 0xffffffffu;

/// Length-prefixed frame helpers (u32 LE length + payload). recv_frame
/// rejects frames whose announced length exceeds `max_size` (throws
/// Error) instead of allocating up to 4 GiB on a corrupted prefix.
void send_frame(const Socket& s, ByteSpan payload);
Bytes recv_frame(const Socket& s, std::uint32_t max_size = kMaxControlFrame);
/// Frame header only — callers stream the payload themselves. Throws
/// Error past kMaxFramedPayload rather than truncating the length.
void send_frame_header(const Socket& s, std::uint64_t payload_size);
std::uint32_t recv_frame_header(const Socket& s);

}  // namespace ecomp::net
