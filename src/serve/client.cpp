#include "serve/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace wheels::serve {
namespace {

bool read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

Client::~Client() { close(); }

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
    return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  in_fd_ = out_fd_ = fd;
  owns_fds_ = true;
  return true;
}

void Client::close() {
  if (owns_fds_) {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0 && out_fd_ != in_fd_) ::close(out_fd_);
  }
  in_fd_ = out_fd_ = -1;
  owns_fds_ = false;
}

void Client::shutdown_writes() {
  if (out_fd_ >= 0) ::shutdown(out_fd_, SHUT_WR);
}

bool Client::send_raw(std::string_view bytes) {
  if (out_fd_ < 0) return false;
  return write_all(out_fd_, bytes);
}

std::optional<std::pair<std::uint8_t, Reply>> Client::read_reply() {
  if (in_fd_ < 0) return std::nullopt;
  char hdr[kFrameHeaderBytes];
  if (!read_exact(in_fd_, hdr, sizeof(hdr))) return std::nullopt;
  std::uint32_t body_len = 0;
  // Replies are bounded by what the daemon produces; accept anything the
  // length field can express rather than guessing the daemon's cap.
  if (peek_frame(std::string_view(hdr, sizeof(hdr)), 0xffffffffu, body_len) !=
      FrameStatus::Ok)
    return std::nullopt;
  std::string body(body_len, '\0');
  if (body_len > 0 && !read_exact(in_fd_, body.data(), body_len))
    return std::nullopt;
  std::uint8_t kind = 0;
  Reply reply;
  if (!decode_reply(body, kind, reply)) return std::nullopt;
  last_reply_bytes_.assign(hdr, sizeof(hdr));
  last_reply_bytes_ += body;
  return std::make_pair(kind, std::move(reply));
}

std::optional<std::pair<std::uint8_t, Reply>> Client::call(
    const Request& req) {
  if (!send_raw(wrap_frame(encode_request(req)))) return std::nullopt;
  return read_reply();
}

}  // namespace wheels::serve
