/**
 * @file
 * Units for the service's HTTP framing: incremental request parsing,
 * query decoding, body handling, limits, and response serialization.
 */

#include <gtest/gtest.h>

#include "service/http.h"
#include "support/error.h"

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
