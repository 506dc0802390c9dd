// Blocking client for the serve daemon's framed protocol.
//
// Wraps connect / frame-write / frame-read over an AF_UNIX socket. Used
// by tools/wheels_loadgen and tests/test_serve; keeps the raw bytes of the
// last reply so callers can assert byte-identity, and exposes send_raw()
// for malformed-frame probes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.h"

namespace wheels::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connect to a daemon's AF_UNIX socket; false on failure.
  [[nodiscard]] bool connect(const std::string& socket_path);

  [[nodiscard]] bool connected() const { return out_fd_ >= 0; }
  void close();

  // Encode + frame + send a request, then block for the reply. nullopt on
  // transport error (including an unparseable reply).
  std::optional<std::pair<std::uint8_t, Reply>> call(const Request& req);

  // Raw transport access for protocol-robustness probes.
  [[nodiscard]] bool send_raw(std::string_view bytes);
  std::optional<std::pair<std::uint8_t, Reply>> read_reply();
  // Half-close the write side (socket transport): the daemon sees EOF
  // while replies stay readable. Probes use this to truncate mid-frame.
  void shutdown_writes();

  // Full frame bytes of the last successfully read reply.
  [[nodiscard]] const std::string& last_reply_bytes() const {
    return last_reply_bytes_;
  }

 private:
  int in_fd_ = -1;
  int out_fd_ = -1;
  bool owns_fds_ = false;
  std::string last_reply_bytes_;
};

}  // namespace wheels::serve
