/**
 * @file
 * POSIX socket wrapper implementation.
 */

#include "net/socket.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mintcb::net
{

namespace
{

Error
sysError(Errc code, const std::string &what)
{
    return Error(code, what + ": " + std::strerror(errno));
}

sockaddr_in
loopbackAddr(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
}

} // namespace

void
OwnedFd::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Result<TcpStream>
TcpStream::connectLoopback(std::uint16_t port, int timeout_ms)
{
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return sysError(Errc::unavailable, "socket");
    const sockaddr_in addr = loopbackAddr(port);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        return sysError(Errc::unavailable,
                        "connect 127.0.0.1:" + std::to_string(port));
    }
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    TcpStream stream{OwnedFd(fd.release())};
    if (timeout_ms > 0) {
        if (auto s = stream.setRecvTimeout(timeout_ms); !s.ok())
            return s.error();
    }
    return stream;
}

Status
TcpStream::setNonBlocking(bool on)
{
    const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
    if (flags < 0)
        return sysError(Errc::unavailable, "fcntl(F_GETFL)");
    const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (::fcntl(fd_.get(), F_SETFL, next) != 0)
        return sysError(Errc::unavailable, "fcntl(F_SETFL)");
    return okStatus();
}

Status
TcpStream::setRecvTimeout(int timeout_ms)
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof tv) != 0) {
        return sysError(Errc::unavailable, "setsockopt(SO_RCVTIMEO)");
    }
    return okStatus();
}

Status
TcpStream::sendAll(const Bytes &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::send(fd_.get(), data.data() + sent, data.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return sysError(Errc::unavailable, "send");
        }
        sent += static_cast<std::size_t>(n);
    }
    return okStatus();
}

Result<std::size_t>
TcpStream::sendSome(const std::uint8_t *data, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::send(fd_.get(), data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return static_cast<std::size_t>(0);
            return sysError(Errc::unavailable, "send");
        }
        return static_cast<std::size_t>(n);
    }
}

Result<std::size_t>
TcpStream::recvSome(Bytes &out, std::size_t max)
{
    Bytes chunk(max);
    for (;;) {
        const ssize_t n = ::recv(fd_.get(), chunk.data(), max, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                return Error(Errc::resourceExhausted,
                             "recv would block / timed out");
            }
            return sysError(Errc::unavailable, "recv");
        }
        out.insert(out.end(), chunk.begin(), chunk.begin() + n);
        return static_cast<std::size_t>(n);
    }
}

Result<TcpListener>
TcpListener::bindLoopback(std::uint16_t port)
{
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return sysError(Errc::unavailable, "socket");
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopbackAddr(port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        return sysError(Errc::unavailable,
                        "bind 127.0.0.1:" + std::to_string(port));
    }
    if (::listen(fd.get(), 128) != 0)
        return sysError(Errc::unavailable, "listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        return sysError(Errc::unavailable, "getsockname");
    }
    TcpListener listener;
    listener.fd_ = OwnedFd(fd.release());
    listener.port_ = ntohs(addr.sin_port);
    return listener;
}

Result<TcpStream>
TcpListener::accept()
{
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    const int fd = ::accept(
        fd_.get(), reinterpret_cast<sockaddr *>(&addr), &len);
    if (fd < 0)
        return sysError(Errc::unavailable, "accept");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return TcpStream{OwnedFd(fd)};
}

Status
FrameChannel::send(FrameType type, const Bytes &payload)
{
    tx_.clear();
    const std::size_t start = beginFrame(type, tx_);
    tx_.insert(tx_.end(), payload.begin(), payload.end());
    endFrame(tx_, start);
    return stream_.sendAll(tx_);
}

Result<Frame>
FrameChannel::recv()
{
    for (;;) {
        auto frame = takeFrame(rx_);
        if (!frame)
            return frame.error();
        if (frame->has_value())
            return std::move(**frame);
        auto n = stream_.recvSome(rx_);
        if (!n)
            return n.error();
        if (*n == 0)
            return Error(Errc::unavailable, "connection closed by peer");
    }
}

} // namespace mintcb::net
