#include "service/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "support/error.h"

namespace petabricks {
namespace service {

namespace {

std::string
toLower(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

std::string
toUpper(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return text;
}

std::string_view
trim(std::string_view text)
{
    size_t begin = text.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos)
        return {};
    size_t end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

/** Whitespace as `>>` skips it in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

void
skipSpace(std::string_view &rest)
{
    size_t at = 0;
    while (at < rest.size() && isSpace(rest[at]))
        ++at;
    rest.remove_prefix(at);
}

/** Consume the next whitespace-separated token of @p rest: what `>>`
 * extracts into a std::string (empty when none is left). */
std::string_view
nextToken(std::string_view &rest)
{
    skipSpace(rest);
    size_t end = 0;
    while (end < rest.size() && !isSpace(rest[end]))
        ++end;
    std::string_view token = rest.substr(0, end);
    rest.remove_prefix(end);
    return token;
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
    }
}

} // namespace

std::string
HttpRequest::param(const std::string &key, const std::string &fallback) const
{
    auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
}

int64_t
HttpRequest::intParam(const std::string &key, int64_t fallback) const
{
    auto it = query.find(key);
    if (it == query.end())
        return fallback;
    const std::string &text = it->second;
    char *end = nullptr;
    errno = 0;
    long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE)
        PB_FATAL("query parameter '" << key << "' is not an int64: '"
                                     << text << "'");
    return static_cast<int64_t>(value);
}

int
intOption(const std::string &key, int64_t value)
{
    if (static_cast<int>(value) != value)
        PB_FATAL("request option '" << key << "' = " << value
                                    << " does not fit in int");
    return static_cast<int>(value);
}

std::string
HttpResponse::serialize() const
{
    std::string out;
    out.reserve(128 + contentType.size() + body.size());
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += reasonPhrase(status);
    out += "\r\nContent-Type: ";
    out += contentType;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
    if (retryAfterSeconds > 0) {
        out += "Retry-After: ";
        out += std::to_string(retryAfterSeconds);
        out += "\r\n";
    }
    out += "Connection: ";
    out += keepAlive ? "keep-alive" : "close";
    out += "\r\n\r\n";
    out += body;
    return out;
}

HttpResponse
HttpResponse::ok(std::string body)
{
    HttpResponse response;
    response.body = std::move(body);
    return response;
}

HttpResponse
HttpResponse::error(int status, std::string message)
{
    HttpResponse response;
    response.status = status;
    if (!message.empty() && message.back() != '\n')
        message += '\n';
    response.body = "error = " + std::move(message);
    return response;
}

std::optional<int>
parseStatusLine(std::string_view line)
{
    if (!nextToken(line).starts_with("HTTP/1."))
        return std::nullopt;
    // What `>>` reads into an int: an optional sign, then decimal digits
    // up to the first other character; none, or too many, is a failure.
    skipSpace(line);
    if (line.size() > 1 && line[0] == '+' &&
        std::isdigit(static_cast<unsigned char>(line[1])))
        line.remove_prefix(1);
    int code = 0;
    auto [end, error] =
        std::from_chars(line.data(), line.data() + line.size(), code);
    if (error != std::errc())
        return std::nullopt;
    return code;
}

std::string
urlDecode(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < text.size() &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
            out += static_cast<char>(
                std::stoi(text.substr(i + 1, 2), nullptr, 16));
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

std::map<std::string, std::string>
parseQuery(const std::string &query)
{
    std::map<std::string, std::string> params;
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        std::string pair = query.substr(pos, amp - pos);
        if (!pair.empty()) {
            size_t eq = pair.find('=');
            if (eq == std::string::npos)
                params[urlDecode(pair)] = "";
            else
                params[urlDecode(pair.substr(0, eq))] =
                    urlDecode(pair.substr(eq + 1));
        }
        pos = amp + 1;
    }
    return params;
}

void
HttpParser::feed(const char *data, size_t size)
{
    if (failed_)
        return;
    // No size check here: a burst of pipelined requests may legally
    // exceed any per-request bound, and each gets popped (and its
    // bytes trimmed) by next(). The limits live in next(), where
    // "incomplete request" and "oversized request" can be told apart —
    // an unparseable tail is bounded there at maxBytes_ of headers
    // plus maxBytes_ of body.
    buffer_.append(data, size);
}

std::optional<HttpRequest>
HttpParser::next()
{
    if (failed_)
        return std::nullopt;
    size_t headerEnd = buffer_.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        if (buffer_.size() > maxBytes_)
            fail("headers exceed size limit");
        return std::nullopt;
    }
    if (headerEnd > maxBytes_) {
        // The terminator exists but the headers alone bust the
        // per-request cap (possible when a whole oversized request
        // arrives within one read burst).
        fail("headers exceed size limit");
        return std::nullopt;
    }

    HttpRequest request;
    // ---- Request line: method, target and version, split as `>>` splits
    // them, extra tokens ignored ------------------------------------------
    const std::string_view wire = buffer_;
    size_t lineEnd = wire.find("\r\n");
    const std::string_view line = wire.substr(0, lineEnd);
    std::string_view rest = line;
    const std::string_view method = nextToken(rest);
    const std::string_view target = nextToken(rest);
    if (!nextToken(rest).starts_with("HTTP/1.")) {
        fail("malformed request line: '" + std::string(line) + "'");
        return std::nullopt;
    }
    request.method = toUpper(std::string(method));
    request.target = target;

    size_t qmark = request.target.find('?');
    if (qmark == std::string::npos) {
        request.path = urlDecode(request.target);
    } else {
        request.path = urlDecode(request.target.substr(0, qmark));
        request.query = parseQuery(request.target.substr(qmark + 1));
    }

    // ---- Headers ------------------------------------------------------
    size_t pos = lineEnd + 2;
    while (pos < headerEnd) {
        size_t end = wire.find("\r\n", pos);
        std::string_view header = wire.substr(pos, end - pos);
        pos = end + 2;
        size_t colon = header.find(':');
        if (colon == std::string_view::npos) {
            fail("malformed header: '" + std::string(header) + "'");
            return std::nullopt;
        }
        request.headers[toLower(std::string(trim(header.substr(0, colon))))] =
            trim(header.substr(colon + 1));
    }

    // ---- Body ---------------------------------------------------------
    size_t bodySize = 0;
    auto it = request.headers.find("content-length");
    if (it != request.headers.end()) {
        char *end = nullptr;
        long long parsed = std::strtoll(it->second.c_str(), &end, 10);
        if (it->second.empty() || *end != '\0' || parsed < 0) {
            fail("bad Content-Length: '" + it->second + "'");
            return std::nullopt;
        }
        bodySize = static_cast<size_t>(parsed);
        if (bodySize > maxBytes_) {
            fail("body exceeds size limit");
            return std::nullopt;
        }
    }
    size_t total = headerEnd + 4 + bodySize;
    if (buffer_.size() < total)
        return std::nullopt; // body still in flight
    request.body = buffer_.substr(headerEnd + 4, bodySize);
    buffer_.erase(0, total);
    return request;
}

void
HttpParser::fail(const std::string &reason)
{
    failed_ = true;
    failReason_ = reason;
    buffer_.clear();
}

} // namespace service
} // namespace petabricks
