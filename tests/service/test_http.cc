/**
 * @file
 * Units for the service's HTTP framing: incremental request parsing,
 * request- and status-line tokenizing, query decoding, body handling,
 * limits, and response serialization.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "service/http.h"
#include "support/error.h"
#include "support/rng.h"

using namespace petabricks;
using namespace petabricks::service;

TEST(HttpParser, ParsesSimpleGet)
{
    HttpParser parser;
    const std::string wire =
        "GET /status?session=s1 HTTP/1.1\r\nHost: x\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    auto request = parser.next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "GET");
    EXPECT_EQ(request->path, "/status");
    EXPECT_EQ(request->param("session"), "s1");
    EXPECT_EQ(request->headers.at("host"), "x");
    EXPECT_TRUE(request->body.empty());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_FALSE(parser.failed());
}

TEST(HttpParser, IncrementalFeedAcrossBoundaries)
{
    HttpParser parser;
    const std::string wire = "POST /create HTTP/1.1\r\n"
                             "Content-Length: 16\r\n\r\n"
                             "benchmark = Sort";
    // One byte at a time: no prefix may yield a request early.
    for (size_t i = 0; i < wire.size(); ++i) {
        parser.feed(wire.data() + i, 1);
        if (i + 1 < wire.size()) {
            ASSERT_FALSE(parser.next().has_value()) << "at byte " << i;
        }
    }
    auto request = parser.next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "POST");
    EXPECT_EQ(request->body, "benchmark = Sort");
}

TEST(HttpParser, PipelinedRequestsPopInOrder)
{
    HttpParser parser;
    const std::string wire = "GET /a HTTP/1.1\r\n\r\n"
                             "GET /b HTTP/1.1\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    auto first = parser.next();
    auto second = parser.next();
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->path, "/a");
    EXPECT_EQ(second->path, "/b");
    EXPECT_FALSE(parser.next().has_value());
}

TEST(HttpParser, QueryDecoding)
{
    HttpParser parser;
    const std::string wire =
        "GET /x?a=1&b=hello%20world&c=x%2By&flag&big=99999999999999999999"
        " HTTP/1.1\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    auto request = parser.next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->param("a"), "1");
    EXPECT_EQ(request->intParam("a", -1), 1);
    EXPECT_EQ(request->param("b"), "hello world");
    EXPECT_EQ(request->param("c"), "x+y");
    EXPECT_TRUE(request->query.count("flag"));
    EXPECT_EQ(request->param("missing", "dflt"), "dflt");
    EXPECT_EQ(request->intParam("missing", 7), 7);
    EXPECT_THROW(request->intParam("b", 0), FatalError);
    EXPECT_THROW(request->intParam("big", 0), FatalError); // past int64
}

TEST(HttpParser, MalformedRequestLineFails)
{
    HttpParser parser;
    const std::string wire = "BOGUS\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, RequestLineSplitsOnAnyWhitespace)
{
    // Tokens split as `>>` splits them: tabs and runs of spaces
    // separate, tokens after the version are ignored, and a missing
    // version or one that is not HTTP/1.x fails.
    struct Case
    {
        const char *line;
        const char *method; ///< nullptr: the request line is malformed
        const char *target;
    };
    const Case cases[] = {
        {"get\t/status?session=s1\tHTTP/1.1", "GET", "/status?session=s1"},
        {"  POST   /step   HTTP/1.0  ", "POST", "/step"},
        {"GET /ping HTTP/1.1 trailing tokens", "GET", "/ping"},
        {"GET\v/ping\fHTTP/1.1\r", "GET", "/ping"},
        {"GET /ping HTTP/1.", "GET", "/ping"},
        {"GET /ping", nullptr, nullptr},
        {"GET /ping ", nullptr, nullptr},
        {"GET /ping HTTP/2.0", nullptr, nullptr},
        {"GET /ping http/1.1", nullptr, nullptr},
        {"", nullptr, nullptr},
    };
    for (const Case &c : cases) {
        HttpParser parser;
        const std::string wire = std::string(c.line) + "\r\n\r\n";
        parser.feed(wire.data(), wire.size());
        auto request = parser.next();
        if (c.method == nullptr) {
            EXPECT_FALSE(request.has_value()) << c.line;
            EXPECT_TRUE(parser.failed()) << c.line;
            continue;
        }
        ASSERT_TRUE(request.has_value()) << c.line;
        EXPECT_EQ(request->method, c.method);
        EXPECT_EQ(request->target, c.target);
    }
}

TEST(HttpParser, RequestLineParsesAsStreamExtractionDid)
{
    // The parser once read the request line with `>>`; random lines over
    // every whitespace byte must meet the same fate, token for token.
    const std::string alphabet = "GT/ ?=\t\v\f\rHP1.0x\n";
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        std::string line;
        if (rng.chance(0.5))
            line = "GET /x HTTP/1.1";
        const int64_t length = rng.uniformInt(0, 24);
        for (int64_t k = 0; k < length; ++k) {
            const size_t at = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(line.size())));
            line.insert(line.begin() + at,
                        alphabet[rng.uniformInt(0, alphabet.size() - 1)]);
        }
        if (line.find("\r\n") != std::string::npos)
            continue; // that would end the line early

        std::istringstream stream(line);
        std::string method, target, version;
        const bool accepted = (stream >> method >> target >> version) &&
                              version.rfind("HTTP/1.", 0) == 0;
        HttpParser parser;
        const std::string wire = line + "\r\n\r\n";
        parser.feed(wire.data(), wire.size());
        auto request = parser.next();
        ASSERT_EQ(request.has_value(), accepted) << "'" << line << "'";
        if (!accepted)
            continue;
        for (char &c : method)
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        EXPECT_EQ(request->method, method) << "'" << line << "'";
        EXPECT_EQ(request->target, target) << "'" << line << "'";
    }
}

TEST(Http, StatusLineParsesAsStreamExtractionDid)
{
    EXPECT_EQ(parseStatusLine("HTTP/1.1 200 OK"), 200);
    EXPECT_EQ(parseStatusLine("HTTP/1.0\t503\tService Unavailable"), 503);
    EXPECT_EQ(parseStatusLine("HTTP/1.1 +404"), 404);
    EXPECT_EQ(parseStatusLine("HTTP/1.1 404x"), 404);
    EXPECT_FALSE(parseStatusLine("HTTP/1.1"));
    EXPECT_FALSE(parseStatusLine("HTTP/1.1 OK"));
    EXPECT_FALSE(parseStatusLine("HTTP/1.1 99999999999"));
    EXPECT_FALSE(parseStatusLine("HTTP/2 200 OK"));

    const std::string alphabet = "HTP/1. 2059+-x\t";
    Rng rng(32);
    for (int i = 0; i < 20000; ++i) {
        std::string line = rng.chance(0.5) ? "HTTP/1.1 " : "";
        const int64_t length = rng.uniformInt(0, 12);
        for (int64_t k = 0; k < length; ++k)
            line += alphabet[rng.uniformInt(0, alphabet.size() - 1)];
        std::istringstream stream(line);
        std::string version;
        int code = 0;
        const bool accepted = (stream >> version >> code) &&
                              version.rfind("HTTP/1.", 0) == 0;
        const std::optional<int> parsed = parseStatusLine(line);
        ASSERT_EQ(parsed.has_value(), accepted) << "'" << line << "'";
        if (accepted) {
            EXPECT_EQ(*parsed, code) << "'" << line << "'";
        }
    }
}

TEST(HttpParser, BadContentLengthFails)
{
    HttpParser parser;
    const std::string wire =
        "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, OversizedBodyFails)
{
    HttpParser parser(128);
    const std::string wire =
        "POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, OversizedHeadersFailEvenWhenComplete)
{
    // The whole oversized request arrives in one burst, terminator
    // included: the per-request header cap must still apply.
    HttpParser parser(64);
    const std::string wire = "GET /x HTTP/1.1\r\nX-Pad: " +
                             std::string(200, 'a') + "\r\n\r\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, PipelinedBurstLargerThanCapIsLegal)
{
    // Several requests, each within the per-request limit, arriving in
    // one read burst that together far exceeds it: all must parse —
    // the limit is per request, not per buffered burst.
    HttpParser parser(256);
    const std::string body(200, 'b');
    std::string wire;
    for (int i = 0; i < 8; ++i)
        wire += "POST /create HTTP/1.1\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_GT(wire.size(), 256u * 2);
    parser.feed(wire.data(), wire.size());
    for (int i = 0; i < 8; ++i) {
        auto request = parser.next();
        ASSERT_TRUE(request.has_value()) << "request " << i;
        EXPECT_EQ(request->body, body);
    }
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_FALSE(parser.failed());
}

TEST(HttpResponse, SerializeRoundTripsThroughAClientParse)
{
    HttpResponse response = HttpResponse::ok("x = 1\n");
    std::string wire = response.serialize();
    EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
    EXPECT_NE(wire.find("\r\n\r\nx = 1\n"), std::string::npos);

    HttpResponse error = HttpResponse::error(404, "unknown session 's9'");
    std::string errorWire = error.serialize();
    EXPECT_NE(errorWire.find("HTTP/1.1 404 Not Found\r\n"),
              std::string::npos);
    EXPECT_NE(errorWire.find("error = unknown session 's9'\n"),
              std::string::npos);
}

TEST(Http, ParseQueryHandlesEdgeCases)
{
    auto params = parseQuery("");
    EXPECT_TRUE(params.empty());
    params = parseQuery("a=&b=2&&c");
    EXPECT_EQ(params.at("a"), "");
    EXPECT_EQ(params.at("b"), "2");
    EXPECT_EQ(params.at("c"), "");
    EXPECT_EQ(urlDecode("%41%7a+%25"), "Az %");
    EXPECT_EQ(urlDecode("%GG"), "%GG"); // bad escape passes through
}
