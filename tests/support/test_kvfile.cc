#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/kvfile.h"
#include "support/rng.h"

namespace petabricks {
namespace {

TEST(KvFile, SetGetRoundTrip)
{
    KvFile kv;
    kv.set("alpha", "one");
    kv.setInt("beta", -17);
    kv.setDouble("gamma", 2.5);
    EXPECT_EQ(kv.get("alpha"), "one");
    EXPECT_EQ(kv.getInt("beta"), -17);
    EXPECT_DOUBLE_EQ(kv.getDouble("gamma"), 2.5);
    EXPECT_EQ(kv.size(), 3u);
}

TEST(KvFile, HasAndMissing)
{
    KvFile kv;
    kv.setInt("x", 1);
    EXPECT_TRUE(kv.has("x"));
    EXPECT_FALSE(kv.has("y"));
    EXPECT_THROW(kv.get("y"), FatalError);
    EXPECT_EQ(kv.getIntOr("y", 99), 99);
    EXPECT_EQ(kv.getIntOr("x", 99), 1);
}

TEST(KvFile, IntListRoundTrip)
{
    KvFile kv;
    kv.setIntList("cutoffs", {64, 512, 4096});
    std::vector<int64_t> expect{64, 512, 4096};
    EXPECT_EQ(kv.getIntList("cutoffs"), expect);
    kv.setIntList("empty", {});
    EXPECT_TRUE(kv.getIntList("empty").empty());
}

TEST(KvFile, TextRoundTripIsStable)
{
    KvFile kv;
    kv.setInt("z_last", 3);
    kv.setInt("a_first", 1);
    std::string text = kv.toString();
    // Keys render sorted so configs diff cleanly.
    EXPECT_LT(text.find("a_first"), text.find("z_last"));
    KvFile back = KvFile::fromString(text);
    EXPECT_EQ(back, kv);
}

TEST(KvFile, ParserSkipsCommentsAndBlanks)
{
    KvFile kv = KvFile::fromString("# comment\n\n  key = value  \n");
    EXPECT_EQ(kv.get("key"), "value");
    EXPECT_EQ(kv.size(), 1u);
}

TEST(KvFile, ParserRejectsGarbage)
{
    EXPECT_THROW(KvFile::fromString("no equals sign"), FatalError);
    EXPECT_THROW(KvFile::fromString("= value"), FatalError);
}

TEST(KvFile, TypedGetRejectsWrongType)
{
    KvFile kv;
    kv.set("s", "hello");
    EXPECT_THROW(kv.getInt("s"), FatalError);
    EXPECT_THROW(kv.getDouble("s"), FatalError);
    kv.set("trailing", "12abc");
    EXPECT_THROW(kv.getInt("trailing"), FatalError);
}

TEST(KvFile, FileRoundTrip)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "pb_kvfile_test.cfg";
    KvFile kv;
    kv.setInt("threads", 16);
    kv.set("machine", "Server");
    kv.save(path.string());
    KvFile back = KvFile::load(path.string());
    EXPECT_EQ(back, kv);
    fs::remove(path);
}

TEST(KvFile, LoadMissingFileIsFatal)
{
    EXPECT_THROW(KvFile::load("/nonexistent/path/cfg"), FatalError);
}

TEST(KvFile, OverwriteReplacesValue)
{
    KvFile kv;
    kv.setInt("k", 1);
    kv.setInt("k", 2);
    EXPECT_EQ(kv.getInt("k"), 2);
    EXPECT_EQ(kv.size(), 1u);
}

TEST(KvFile, SectionIsThePrefixRangeWithThePrefixStripped)
{
    KvFile kv;
    kv.setInt("population.1.lws", 8);
    kv.setDouble("population.1.seconds", 0.5);
    kv.setInt("population.10.lws", 9); // not under "population.1."
    kv.setInt("population.0.lws", 7);
    kv.setInt("session.population", 3);
    KvFile one = kv.section("population.1.");
    EXPECT_EQ(one.keys(), (std::vector<std::string>{"lws", "seconds"}));
    EXPECT_EQ(one.getInt("lws"), 8);
    EXPECT_EQ(one.getDouble("seconds"), 0.5);
    EXPECT_EQ(kv.section("population.").size(), 4u);
    EXPECT_EQ(kv.section("").toString(), kv.toString());
    EXPECT_EQ(kv.section("population.2.").size(), 0u);
}

TEST(KvFile, HexIsSixteenLowerCaseDigitsAndParsesBack)
{
    KvFile kv;
    kv.setHex("zero", 0);
    kv.setHex("bits", std::bit_cast<uint64_t>(0.25));
    kv.setHex("max", std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(kv.get("zero"), "0000000000000000");
    EXPECT_EQ(kv.get("bits"), "3fd0000000000000");
    EXPECT_EQ(kv.get("max"), "ffffffffffffffff");
    EXPECT_EQ(kv.getHex("bits"), std::bit_cast<uint64_t>(0.25));
    EXPECT_EQ(kv.getHex("max"), std::numeric_limits<uint64_t>::max());
    for (const char *bad :
         {"", "0x1f", "-1", "12 34", "g", "1ffffffffffffffff"}) {
        kv.set("bad", bad);
        EXPECT_THROW(kv.getHex("bad"), FatalError) << bad;
    }
    EXPECT_THROW(kv.getHex("missing"), FatalError);
}

TEST(KvFileSeal, SealedFileVerifiesAndEveryChangeIsCaught)
{
    KvFile kv;
    kv.set("record.name", "Sort");
    kv.setInt("record.size", 1024);
    kv.seal("demo", 3);
    EXPECT_EQ(kv.getInt("demo.version"), 3);
    EXPECT_EQ(kv.get("demo.checksum").size(), 16u);
    const KvFile sealed = KvFile::fromString(kv.toString());
    EXPECT_NO_THROW(sealed.verifySeal("demo", 3, "demo.kv"));

    // Sealing again is idempotent: the checksum skips itself.
    KvFile resealed = sealed;
    resealed.seal("demo", 3);
    EXPECT_EQ(resealed, sealed);

    auto expectRejected = [](const KvFile &file, const char *kind,
                             int64_t version) {
        try {
            file.verifySeal(kind, version, "/spool/demo.kv");
            ADD_FAILURE() << "accepted " << file.toString();
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find("/spool/demo.kv"),
                      std::string::npos)
                << error.what();
        }
    };
    expectRejected(sealed, "demo", 4);  // another version
    expectRejected(sealed, "other", 3); // another kind
    KvFile edited = sealed;
    edited.setInt("record.size", 1025);
    expectRejected(edited, "demo", 3);
    edited = sealed;
    edited.set("record.extra", "1"); // an added entry
    expectRejected(edited, "demo", 3);
    edited = sealed;
    edited.set("demo.checksum", "not hex");
    expectRejected(edited, "demo", 3);
    KvFile unsealed;
    unsealed.set("record.name", "Sort");
    unsealed.setInt("demo.version", 3);
    expectRejected(unsealed, "demo", 3); // no checksum
}

// ---- Byte compatibility with the iostream implementation ---------------
//
// The renderer and parser once used ostringstream/istringstream. What
// follows is that code, kept here as the reference: every file the
// program writes (spool metadata, champions, cache segments, HTTP
// bodies) must come out byte-identical, and every file it reads must
// parse to the same entries or fail with the same message.

namespace iostreamReference {

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

std::string
renderDouble(double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    return oss.str();
}

std::string
renderIntList(const std::vector<int64_t> &values)
{
    std::ostringstream oss;
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            oss << ",";
        oss << values[i];
    }
    return oss.str();
}

std::string
render(const std::map<std::string, std::string> &entries)
{
    std::ostringstream oss;
    for (const auto &kv : entries)
        oss << kv.first << " = " << kv.second << "\n";
    return oss.str();
}

/** Throws std::runtime_error carrying FatalError's message text. */
std::map<std::string, std::string>
parse(const std::string &text)
{
    std::map<std::string, std::string> entries;
    std::istringstream iss(text);
    std::string line;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        size_t eq = stripped.find('=');
        std::ostringstream message;
        if (eq == std::string::npos) {
            message << "config line " << lineno << " has no '=': " << line;
            throw std::runtime_error(message.str());
        }
        std::string key = trim(stripped.substr(0, eq));
        std::string value = trim(stripped.substr(eq + 1));
        if (key.empty()) {
            message << "config line " << lineno << " has empty key";
            throw std::runtime_error(message.str());
        }
        entries[key] = value;
    }
    return entries;
}

} // namespace iostreamReference

/** A FatalError's message without its "fatal at file:line: " prefix. */
std::string
fatalMessage(const FatalError &error)
{
    std::string what = error.what();
    size_t start = what.find(": ");
    return start == std::string::npos ? what : what.substr(start + 2);
}

std::map<std::string, std::string>
entriesOf(const KvFile &kv)
{
    std::map<std::string, std::string> entries;
    for (const std::string &key : kv.keys())
        entries[key] = kv.get(key);
    return entries;
}

/** Parse @p text both ways; both must succeed with the same entries or
 * fail with the same message. */
void
expectSameParse(const std::string &text)
{
    std::map<std::string, std::string> expected;
    std::string expectedError;
    try {
        expected = iostreamReference::parse(text);
    } catch (const std::runtime_error &error) {
        expectedError = error.what();
    }
    try {
        KvFile kv = KvFile::fromString(text);
        EXPECT_EQ(expectedError, "") << "accepted: " << text;
        EXPECT_EQ(entriesOf(kv), expected) << text;
    } catch (const FatalError &error) {
        EXPECT_EQ(fatalMessage(error), expectedError) << text;
    }
}

double
specialDouble(Rng &rng)
{
    using Limits = std::numeric_limits<double>;
    const double specials[] = {0.0,
                               -0.0,
                               Limits::infinity(),
                               -Limits::infinity(),
                               Limits::quiet_NaN(),
                               -Limits::quiet_NaN(),
                               Limits::denorm_min(),
                               -Limits::denorm_min(),
                               Limits::min(),
                               Limits::max(),
                               Limits::lowest(),
                               Limits::epsilon(),
                               0.1,
                               1.0 / 3.0,
                               2.5,
                               1e21,
                               1e-7,
                               123456789012345678.0};
    const size_t count = sizeof(specials) / sizeof(specials[0]);
    if (rng.chance(0.2))
        return specials[rng.uniformInt(0, count - 1)];
    if (rng.chance(0.5))
        return std::bit_cast<double>(rng()); // any bit pattern
    return rng.uniformReal(-1e6, 1e6);
}

std::string
randomText(Rng &rng, const std::string &alphabet, int maxLength)
{
    std::string text;
    const int64_t length = rng.uniformInt(0, maxLength);
    for (int64_t i = 0; i < length; ++i)
        text += alphabet[rng.uniformInt(0, alphabet.size() - 1)];
    return text;
}

TEST(KvFileCompat, DoublesAndIntListsRenderAsIostreamsDid)
{
    Rng rng(17);
    KvFile kv;
    for (int i = 0; i < 200000; ++i) {
        double value = specialDouble(rng);
        kv.setDouble("d", value);
        ASSERT_EQ(kv.get("d"), iostreamReference::renderDouble(value))
            << std::bit_cast<uint64_t>(value);
    }
    for (int i = 0; i < 20000; ++i) {
        std::vector<int64_t> values(
            static_cast<size_t>(rng.uniformInt(0, 6)));
        for (int64_t &value : values)
            value = rng.chance(0.1)
                        ? (rng.chance(0.5)
                               ? std::numeric_limits<int64_t>::min()
                               : std::numeric_limits<int64_t>::max())
                        : static_cast<int64_t>(rng()) >>
                              rng.uniformInt(0, 63);
        kv.setIntList("l", values);
        ASSERT_EQ(kv.get("l"), iostreamReference::renderIntList(values));
    }
}

TEST(KvFileCompat, FilesRenderAndParseAsIostreamsDid)
{
    // Keys and values take spaces, tabs, '#' and '\r'; values also '='.
    // Neither holds '\n', and keys hold no '=', as KvFile::set demands.
    const std::string keyAlphabet = "ab.Z09_ \t#\r-";
    const std::string valueAlphabet = keyAlphabet + "=,";
    const std::string noise = "a=# \t\r\n\n\n.,0-";
    Rng rng(4242);
    for (int file = 0; file < 3000; ++file) {
        KvFile kv;
        std::map<std::string, std::string> entries;
        const int64_t count = rng.uniformInt(0, 12);
        for (int64_t i = 0; i < count; ++i) {
            std::string key = randomText(rng, keyAlphabet, 12);
            switch (rng.uniformInt(0, 3)) {
            case 0:
                kv.setDouble(key, specialDouble(rng));
                break;
            case 1:
                kv.setInt(key, static_cast<int64_t>(rng()));
                break;
            case 2:
                kv.setIntList(key, {rng.uniformInt(-9, 9),
                                    static_cast<int64_t>(rng())});
                break;
            default:
                kv.set(key, randomText(rng, valueAlphabet, 16));
            }
            entries[key] = kv.get(key);
        }
        const std::string text = kv.toString();
        ASSERT_EQ(text, iostreamReference::render(entries));
        expectSameParse(text);

        // Seeded byte mutations: overwrite, insert, delete, truncate.
        for (int m = 0; m < 8; ++m) {
            std::string mutated = text;
            const int64_t edits = rng.uniformInt(1, 4);
            for (int64_t e = 0; e < edits; ++e) {
                const size_t at = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(mutated.size())));
                const char c = rng.chance(0.1)
                                   ? '\0'
                                   : noise[rng.uniformInt(
                                         0, noise.size() - 1)];
                switch (rng.uniformInt(0, 3)) {
                case 0:
                    if (at < mutated.size())
                        mutated[at] = c;
                    break;
                case 1:
                    mutated.insert(mutated.begin() + at, c);
                    break;
                case 2:
                    if (at < mutated.size())
                        mutated.erase(at, 1);
                    break;
                default:
                    mutated.resize(at);
                }
            }
            expectSameParse(mutated);
        }
    }
}

TEST(KvFileCompat, DoublesRenderAsSnprintfDid)
{
    // setDouble (and KvWriter, which shares its formatting) renders with
    // std::to_chars at precision 17; "%.17g" is the reference.
    auto expectSnprintf = [](uint64_t bits) {
        const double value = std::bit_cast<double>(bits);
        char expected[32];
        std::snprintf(expected, sizeof(expected), "%.17g", value);
        KvFile kv;
        kv.setDouble("d", value);
        ASSERT_EQ(kv.get("d"), expected) << std::hex << bits;
    };
    constexpr uint64_t kSign = uint64_t{1} << 63;
    constexpr uint64_t kExponent = uint64_t{0x7ff} << 52;
    constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
    // Zeros, the subnormal and normal extremes, infinity, NaNs.
    const uint64_t specials[] = {0,
                                 1,
                                 kMantissa,
                                 uint64_t{1} << 52,
                                 kExponent - 1,
                                 kExponent,
                                 kExponent | kMantissa,
                                 kExponent | 1,
                                 kExponent | (uint64_t{1} << 51)};
    for (uint64_t sign : {uint64_t{0}, kSign}) {
        for (uint64_t bits : specials)
            expectSnprintf(sign | bits);
        for (int bit = 0; bit < 52; ++bit)
            expectSnprintf(sign | kExponent | (uint64_t{1} << bit));
    }
    Rng rng(2026);
    for (int i = 0; i < 1000000; ++i)
        expectSnprintf(rng()); // any bit pattern
    for (int i = 0; i < 100000; ++i) {
        expectSnprintf(rng() & (kSign | kMantissa));              // subnormal
        expectSnprintf((rng() & (kSign | kMantissa)) | kExponent); // inf, NaN
    }
}

// ---- KvWriter: the text KvFile renders, in one pass ----------------------

TEST(KvWriter, RendersAndSealsTheTextKvFileDoes)
{
    // Keys sort as bytes: '1' < '2' puts member 10 before member 2, and
    // a byte >= 0x80 after every ASCII one.
    const std::string keyAlphabet = "ab.Z09_ \t#-\xc3";
    const std::string valueAlphabet = keyAlphabet + "=,";
    Rng rng(99);
    for (int record = 0; record < 3000; ++record) {
        KvFile kv;
        KvWriter writer;
        const int64_t count = rng.uniformInt(0, 40);
        for (int64_t i = 0; i < count; ++i) {
            std::string key = rng.chance(0.3)
                                  ? "population." +
                                        std::to_string(rng.uniformInt(0, 24)) +
                                        "." + randomText(rng, "ab", 2)
                                  : randomText(rng, keyAlphabet, 12);
            if (key.empty() || kv.has(key))
                continue; // a writer's keys are distinct
            switch (rng.uniformInt(0, 4)) {
            case 0: {
                const double value = specialDouble(rng);
                kv.setDouble(key, value);
                writer.setDouble(key, value);
                break;
            }
            case 1: {
                const int64_t value = static_cast<int64_t>(rng());
                kv.setInt(key, value);
                writer.setInt(key, value);
                break;
            }
            case 2: {
                std::vector<int64_t> values(
                    static_cast<size_t>(rng.uniformInt(0, 4)));
                for (int64_t &value : values)
                    value = static_cast<int64_t>(rng()) >>
                            rng.uniformInt(0, 63);
                kv.setIntList(key, values);
                writer.setIntList(key, values);
                break;
            }
            case 3: {
                const uint64_t value = rng();
                kv.setHex(key, value);
                writer.setHex(key, value);
                break;
            }
            default: {
                const std::string value = randomText(rng, valueAlphabet, 16);
                kv.set(key, value);
                writer.set(key, value);
            }
            }
        }
        if (rng.chance(0.5)) {
            ASSERT_EQ(writer.render(), kv.toString());
        } else {
            const std::string kind = rng.chance(0.5) ? "session" : "a";
            const int64_t version = rng.uniformInt(1, 3);
            ASSERT_EQ(writer.seal(kind, version),
                      kv.seal(kind, version).toString());
        }
    }
}

TEST(KvWriter, ARepeatedKeyIsAPanic)
{
    KvWriter twice;
    twice.setInt("a", 1);
    twice.setInt("b", 2);
    twice.setInt("a", 3);
    EXPECT_THROW(twice.render(), PanicError);

    KvWriter checksummed;
    checksummed.setHex("demo.checksum", 0);
    EXPECT_THROW(checksummed.seal("demo", 1), PanicError);

    KvWriter bad;
    EXPECT_THROW(bad.set("a=b", "1"), PanicError);
    EXPECT_THROW(bad.set("a", "1\n2"), PanicError);
}

} // namespace
} // namespace petabricks
