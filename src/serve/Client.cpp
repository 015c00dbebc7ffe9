//===- serve/Client.cpp - Framed-protocol client helpers -----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "serve/Daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

ClientConn &ClientConn::operator=(ClientConn &&O) noexcept {
  if (this != &O) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = O.Fd;
    O.Fd = -1;
    Reader = FrameReader();
  }
  return *this;
}

ClientConn::~ClientConn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool ClientConn::sendFrame(std::string_view Payload, uint64_t StallMillis) {
  std::string Frame = encodeFrame(Payload);
  if (!StallMillis)
    return writeAll(Fd, Frame);
  for (char B : Frame) {
    std::this_thread::sleep_for(std::chrono::milliseconds(StallMillis));
    if (!writeAll(Fd, std::string_view(&B, 1)))
      return false;
  }
  return true;
}

bool ClientConn::sendRaw(std::string_view Bytes) {
  return writeAll(Fd, Bytes);
}

void ClientConn::finishWrites() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_WR);
}

ErrorOr<std::string> ClientConn::recvFrame(uint64_t RecvTimeoutMillis) {
  if (RecvTimeoutMillis) {
    timeval Tv{};
    Tv.tv_sec = static_cast<time_t>(RecvTimeoutMillis / 1000);
    Tv.tv_usec = static_cast<suseconds_t>((RecvTimeoutMillis % 1000) * 1000);
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  std::string Payload;
  for (;;) {
    FrameReader::Status S = Reader.next(Payload);
    if (S == FrameReader::Status::Frame)
      return Payload;
    if (S == FrameReader::Status::Error)
      return Failure(Diag::error(
          std::string("client: response framing error: ") +
          FrameReader::errorName(Reader.error())));
    char Buf[4096];
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Failure(Diag::error("client: timed out waiting for response"));
      return Failure(Diag::error(std::string("client: read failed: ") +
                                 std::strerror(errno)));
    }
    if (N == 0)
      return Failure(Diag::error(
          Reader.midFrame()
              ? "client: connection closed mid-frame (truncated response)"
              : "client: connection closed"));
    Reader.feed(Buf, static_cast<size_t>(N));
  }
}

ErrorOr<std::string> ClientConn::call(std::string_view Payload,
                                      uint64_t RecvTimeoutMillis) {
  if (!sendFrame(Payload))
    return Failure(Diag::error("client: send failed"));
  return recvFrame(RecvTimeoutMillis);
}

ErrorOr<ClientConn> serve::connectUnix(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Failure(Diag::error("client: socket path too long: '" + Path + "'"));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Failure(Diag::error("client: socket(AF_UNIX) failed"));
  setCloexec(Fd);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int E = errno;
    ::close(Fd);
    return Failure(Diag::error("client: cannot connect to '" + Path +
                               "': " + std::strerror(E)));
  }
  return ClientConn(Fd);
}

ErrorOr<ClientConn> serve::connectTcp(int Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Failure(Diag::error("client: socket(AF_INET) failed"));
  setCloexec(Fd);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int E = errno;
    ::close(Fd);
    return Failure(Diag::error("client: cannot connect to 127.0.0.1:" +
                               std::to_string(Port) + ": " +
                               std::strerror(E)));
  }
  return ClientConn(Fd);
}
