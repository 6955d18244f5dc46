#include "serve/protocol.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/decimal.hh"

namespace flywheel::serve {

std::string
encodeFrame(const Json &frame)
{
    std::string line = frame.dump(0);
    line += '\n';
    return line;
}

bool
decodeFrame(const std::string &line, Json *out, std::string *error)
{
    Json frame;
    std::string parse_error;
    if (!Json::parse(line, frame, &parse_error)) {
        if (error)
            *error = "malformed frame: " + parse_error;
        return false;
    }
    if (!frame.isObject()) {
        if (error)
            *error = "malformed frame: not a JSON object";
        return false;
    }
    if (!frame["type"].isString() || frame["type"].asString().empty()) {
        if (error)
            *error = "malformed frame: missing \"type\"";
        return false;
    }
    *out = std::move(frame);
    return true;
}

bool
checkFrameVersion(const Json &frame, std::string *error)
{
    if (!frame["v"].isString() ||
        frame["v"].asString() != kServeSchema) {
        if (error)
            *error = std::string("protocol version mismatch: want \"") +
                     kServeSchema + "\"";
        return false;
    }
    return true;
}

void
FrameBuffer::append(const char *data, std::size_t n)
{
    if (overflowed_)
        return;
    buffer_.append(data, n);
    // The cap bounds the *line*, so an un-delimited buffer past the
    // cap can never become a legal frame.
    if (buffer_.size() > kMaxFrameBytes &&
        buffer_.find('\n') == std::string::npos)
        overflowed_ = true;
}

bool
FrameBuffer::peekLine(std::string *line)
{
    if (overflowed_)
        return false;
    const std::size_t nl = buffer_.find('\n');
    if (nl == std::string::npos)
        return false;
    if (nl + 1 > kMaxFrameBytes) {
        overflowed_ = true;
        return false;
    }
    line->assign(buffer_, 0, nl);
    return true;
}

bool
FrameBuffer::nextLine(std::string *line)
{
    if (!peekLine(line))
        return false;
    buffer_.erase(0, line->size() + 1);
    return true;
}

std::string
ServeAddress::display() const
{
    if (tcp)
        return host + ":" + std::to_string(port);
    return path;
}

bool
parseServeAddress(const std::string &text, ServeAddress *out,
                  std::string *error)
{
    if (text.empty()) {
        if (error)
            *error = "empty server address";
        return false;
    }
    const std::size_t colon = text.rfind(':');
    if (colon != std::string::npos && colon > 0 &&
        text.find('/') == std::string::npos) {
        // Port 0 is legal — it asks a *listener* for an ephemeral port
        // (connecting to it just fails).  A tail that is not a plain
        // decimal makes the whole text a socket path.
        std::uint64_t port = 0;
        switch (parseDecimal(std::string_view(text).substr(colon + 1), 0,
                             65535, &port)) {
          case DecimalParse::Ok:
            out->tcp = true;
            out->host = text.substr(0, colon);
            out->port = static_cast<int>(port);
            out->path.clear();
            return true;
          case DecimalParse::OutOfRange:
            if (error)
                *error = "bad TCP port in address '" + text + "'";
            return false;
          case DecimalParse::Malformed:
            break;
        }
    }
    out->tcp = false;
    out->host.clear();
    out->port = 0;
    out->path = text;
    return true;
}

namespace {

/** Full-buffer send, retrying on EINTR and short writes. */
bool
sendAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += sent;
        n -= static_cast<std::size_t>(sent);
    }
    return true;
}

} // namespace

FrameSocket::~FrameSocket()
{
    close();
}

bool
FrameSocket::connectTo(const ServeAddress &address, std::string *error)
{
    close();
    int fd = -1;
    if (address.tcp) {
        struct ::addrinfo hints;
        std::memset(&hints, 0, sizeof(hints));
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        struct ::addrinfo *res = nullptr;
        const std::string port = std::to_string(address.port);
        const int rc = ::getaddrinfo(address.host.c_str(), port.c_str(),
                                     &hints, &res);
        if (rc != 0) {
            if (error)
                *error = "cannot resolve " + address.display() + ": " +
                         ::gai_strerror(rc);
            return false;
        }
        for (struct ::addrinfo *ai = res; ai; ai = ai->ai_next) {
            fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
            if (fd < 0)
                continue;
            if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
                break;
            ::close(fd);
            fd = -1;
        }
        ::freeaddrinfo(res);
    } else {
        struct ::sockaddr_un sun;
        std::memset(&sun, 0, sizeof(sun));
        sun.sun_family = AF_UNIX;
        if (address.path.size() >= sizeof(sun.sun_path)) {
            if (error)
                *error = "socket path too long: " + address.path;
            return false;
        }
        std::memcpy(sun.sun_path, address.path.c_str(),
                    address.path.size());
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<struct ::sockaddr *>(&sun),
                      sizeof(sun)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    if (fd < 0) {
        if (error)
            *error = "cannot connect to " + address.display() + ": " +
                     std::strerror(errno);
        return false;
    }
    fd_ = fd;
    return true;
}

void
FrameSocket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    inbuf_ = FrameBuffer();
}

bool
FrameSocket::sendFrame(const Json &frame)
{
    const std::string line = encodeFrame(frame);
    std::lock_guard<std::mutex> lock(sendMutex_);
    if (fd_ < 0)
        return false;
    return sendAll(fd_, line.data(), line.size());
}

bool
FrameSocket::recvFrame(Json *out, std::string *error)
{
    std::string line;
    while (!inbuf_.nextLine(&line)) {
        if (inbuf_.overflowed()) {
            if (error)
                *error = "frame exceeds the protocol size cap";
            return false;
        }
        if (fd_ < 0) {
            if (error)
                *error = "not connected";
            return false;
        }
        char chunk[4096];
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("receive failed: ") +
                         std::strerror(errno);
            return false;
        }
        if (got == 0) {
            if (error)
                *error = "connection closed by peer";
            return false;
        }
        inbuf_.append(chunk, static_cast<std::size_t>(got));
    }
    return decodeFrame(line, out, error);
}

} // namespace flywheel::serve
