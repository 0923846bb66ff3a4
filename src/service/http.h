/**
 * @file
 * Minimal HTTP/1.1 framing for the tuning service's command API.
 *
 * The daemon speaks just enough HTTP to be driven by service::Client,
 * curl, or a browser: request line + headers + Content-Length body,
 * keep-alive connections, percent-encoded query strings. Command
 * arguments travel in the query string; structured payloads (create
 * options, champion configs) travel as KvFile text bodies — the same
 * `key = value` format as the paper's choice configuration files, so
 * every wire payload diffs cleanly and reuses the existing parser.
 *
 * The parser is incremental (feed() bytes as they arrive on a
 * non-blocking socket, poll parsed requests out), which is what the
 * single-threaded front-end loop needs: it never blocks waiting for
 * the rest of a request.
 */

#ifndef PETABRICKS_SERVICE_HTTP_H
#define PETABRICKS_SERVICE_HTTP_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace petabricks {
namespace service {

/** One parsed request. */
struct HttpRequest
{
    std::string method; ///< "GET", "POST", ... (uppercased)
    std::string target; ///< raw request target ("/step?session=s1")
    std::string path;   ///< decoded path component ("/step")
    std::map<std::string, std::string> query; ///< decoded query params
    std::map<std::string, std::string> headers; ///< lowercased names
    std::string body;

    /** Query parameter @p key, or @p fallback when absent. Returned by
     * value: a reference into `query` would invite dangling when the
     * fallback (a temporary) is chosen. */
    std::string param(const std::string &key,
                      const std::string &fallback = std::string()) const;

    /** Integer query parameter; fatal error unless it is an int64. */
    int64_t intParam(const std::string &key, int64_t fallback) const;
};

/** One response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    bool keepAlive = true;

    /** When > 0, emitted as a `Retry-After` header — the backpressure
     * hint accompanying a 503 so clients know when to come back. */
    int retryAfterSeconds = 0;

    /** Render the full wire form (status line, headers, body). */
    std::string serialize() const;

    static HttpResponse ok(std::string body);
    static HttpResponse error(int status, std::string message);
};

/**
 * The status code of an HTTP/1.x status line ("HTTP/1.1 200 OK"), read
 * as `>>` reads a version token and an int; nullopt when malformed.
 */
std::optional<int> parseStatusLine(std::string_view line);

/** @p value of request option @p key as an int: fatal error (a 400)
 * where a cast would truncate it. */
int intOption(const std::string &key, int64_t value);

/** Decode %XX escapes and '+' in a URL component. */
std::string urlDecode(const std::string &text);

/** Parse "a=1&b=x%20y" into a decoded key/value map. */
std::map<std::string, std::string> parseQuery(const std::string &query);

/**
 * Incremental request parser for one connection. feed() appends raw
 * bytes; next() pops the earliest complete request, leaving any
 * pipelined remainder buffered. Malformed or oversized input sets
 * failed() — the connection should answer 400 and close.
 */
class HttpParser
{
  public:
    /** @param maxBytes cap on headers+body of a single request. */
    explicit HttpParser(size_t maxBytes = 1 << 20) : maxBytes_(maxBytes) {}

    /** Append newly received bytes. */
    void feed(const char *data, size_t size);

    /** Pop the next complete request, if one is buffered. */
    std::optional<HttpRequest> next();

    /** True while bytes wait that next() has not consumed (a partial
     * request, or requests not popped yet). */
    bool pending() const { return !buffer_.empty(); }

    /** True once the stream is unparseable (protocol error / too big). */
    bool failed() const { return failed_; }

    /** Human-readable reason when failed(). */
    const std::string &failReason() const { return failReason_; }

  private:
    void fail(const std::string &reason);

    std::string buffer_;
    size_t maxBytes_;
    bool failed_ = false;
    std::string failReason_;
};

} // namespace service
} // namespace petabricks

#endif // PETABRICKS_SERVICE_HTTP_H
