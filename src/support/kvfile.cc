#include "support/kvfile.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/hash.h"

namespace petabricks {

namespace {

std::string_view
trim(std::string_view s)
{
    size_t begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string_view::npos)
        return {};
    size_t end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

// ---- The text format, shared by KvFile and KvWriter --------------------

void
checkKey(std::string_view key)
{
    PB_ASSERT(key.find('=') == std::string_view::npos &&
                  key.find('\n') == std::string_view::npos,
              "invalid key '" << key << "'");
}

void
checkValue(std::string_view key, std::string_view value)
{
    PB_ASSERT(value.find('\n') == std::string_view::npos,
              "value for '" << key << "' contains newline");
}

void
appendInt(std::string &out, int64_t value)
{
    char digits[24]; // "-9223372036854775808" is 20 characters
    out.append(digits,
               std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

void
appendDouble(std::string &out, double value)
{
    // Byte for byte "%.17g", the text an ostream prints at precision 17:
    // it round-trips every double, and renders inf/nan the same way.
    char text[32]; // "-2.2250738585072014e-308" is 24 characters
    out.append(text, std::to_chars(text, text + sizeof(text), value,
                                   std::chars_format::general, 17)
                         .ptr);
}

void
appendIntList(std::string &out, std::span<const int64_t> values)
{
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        appendInt(out, values[i]);
    }
}

void
appendHex(std::string &out, uint64_t value)
{
    char text[16];
    for (size_t i = 16; i-- > 0; value >>= 4)
        text[i] = "0123456789abcdef"[value & 0xf];
    out.append(text, sizeof(text));
}

/** Bytes a line adds to its key and value: " = " and '\n'. */
constexpr size_t kLineOverhead = 4;

void
appendLine(std::string &out, std::string_view key, std::string_view value)
{
    out += key;
    out += " = ";
    out += value;
    out += '\n';
}

std::string
versionKey(const std::string &kind)
{
    return kind + ".version";
}

std::string
checksumKey(const std::string &kind)
{
    return kind + ".checksum";
}

/** Add one entry to a seal's checksum; entries go in key order. */
void
mixEntry(Fnv1a &hash, std::string_view key, std::string_view value)
{
    hash.mix(key).mix(value);
}

} // namespace

void
KvFile::set(std::string key, std::string value)
{
    checkKey(key);
    checkValue(key, value);
    entries_.insert_or_assign(std::move(key), std::move(value));
}

void
KvFile::setInt(const std::string &key, int64_t value)
{
    std::string text;
    appendInt(text, value);
    set(key, std::move(text));
}

void
KvFile::setDouble(const std::string &key, double value)
{
    std::string text;
    appendDouble(text, value);
    set(key, std::move(text));
}

void
KvFile::setIntList(const std::string &key,
                   const std::vector<int64_t> &values)
{
    std::string text;
    appendIntList(text, values);
    set(key, std::move(text));
}

void
KvFile::setHex(const std::string &key, uint64_t value)
{
    std::string text;
    appendHex(text, value);
    set(key, std::move(text));
}

bool
KvFile::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

const std::string &
KvFile::get(const std::string &key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        PB_FATAL("missing config key '" << key << "'");
    return it->second;
}

int64_t
KvFile::getInt(const std::string &key) const
{
    const std::string &raw = get(key);
    try {
        size_t pos = 0;
        int64_t value = std::stoll(raw, &pos);
        if (pos != raw.size())
            PB_FATAL("trailing junk in int key '" << key << "': " << raw);
        return value;
    } catch (const std::invalid_argument &) {
        PB_FATAL("key '" << key << "' is not an integer: " << raw);
    } catch (const std::out_of_range &) {
        PB_FATAL("key '" << key << "' out of int64 range: " << raw);
    }
}

double
KvFile::getDouble(const std::string &key) const
{
    const std::string &raw = get(key);
    try {
        size_t pos = 0;
        double value = std::stod(raw, &pos);
        if (pos != raw.size())
            PB_FATAL("trailing junk in double key '" << key << "': " << raw);
        return value;
    } catch (const std::invalid_argument &) {
        PB_FATAL("key '" << key << "' is not a double: " << raw);
    } catch (const std::out_of_range &) {
        PB_FATAL("key '" << key << "' out of double range: " << raw);
    }
}

std::vector<int64_t>
KvFile::getIntList(const std::string &key) const
{
    const std::string &raw = get(key);
    std::vector<int64_t> values;
    if (trim(raw).empty())
        return values;
    std::istringstream iss(raw);
    std::string item;
    while (std::getline(iss, item, ',')) {
        try {
            values.push_back(std::stoll(std::string(trim(item))));
        } catch (const std::exception &) {
            PB_FATAL("bad int list element in '" << key << "': " << item);
        }
    }
    return values;
}

uint64_t
KvFile::getHex(const std::string &key) const
{
    const std::string &raw = get(key);
    const char *end = raw.data() + raw.size();
    uint64_t value = 0;
    auto [stop, error] = std::from_chars(raw.data(), end, value, 16);
    if (raw.empty() || error != std::errc() || stop != end)
        PB_FATAL("key '" << key << "' is not 64-bit hex: " << raw);
    return value;
}

int64_t
KvFile::getIntOr(const std::string &key, int64_t fallback) const
{
    return has(key) ? getInt(key) : fallback;
}

std::vector<std::string>
KvFile::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &kv : entries_)
        out.push_back(kv.first);
    return out;
}

KvFile
KvFile::section(const std::string &prefix) const
{
    KvFile out;
    for (auto it = entries_.lower_bound(prefix);
         it != entries_.end() && it->first.starts_with(prefix); ++it)
        out.entries_.emplace_hint(out.entries_.end(),
                                  it->first.substr(prefix.size()),
                                  it->second);
    return out;
}

KvFile &
KvFile::seal(const std::string &kind, int64_t version)
{
    setInt(versionKey(kind), version);
    const std::string checksum = checksumKey(kind);
    Fnv1a hash;
    for (const auto &[key, value] : entries_)
        if (key != checksum)
            mixEntry(hash, key, value);
    setHex(checksum, hash.value());
    return *this;
}

void
KvFile::verifySeal(const std::string &kind, int64_t version,
                   const std::string &path) const
{
    // Sealing a file again changes nothing exactly when seal(kind,
    // version) wrote it and nothing has changed it since.
    KvFile resealed = *this;
    if (resealed.seal(kind, version) != *this)
        PB_FATAL("'" << path << "' is not an intact " << kind << " v"
                     << version << " record (torn, edited, or another "
                     << "kind or version)");
}

std::string
KvFile::toString() const
{
    size_t bytes = 0;
    for (const auto &[key, value] : entries_)
        bytes += key.size() + value.size() + kLineOverhead;
    std::string text;
    text.reserve(bytes);
    for (const auto &[key, value] : entries_)
        appendLine(text, key, value);
    return text;
}

KvFile
KvFile::fromString(std::string_view text)
{
    KvFile kv;
    std::string_view rest = text;
    int lineno = 0;
    // Lines as std::getline splits them: on '\n', with a final line
    // that lacks one still counted.
    while (!rest.empty()) {
        size_t newline = rest.find('\n');
        std::string_view line = rest.substr(0, newline);
        rest.remove_prefix(newline == std::string_view::npos
                               ? rest.size()
                               : newline + 1);
        ++lineno;
        std::string_view stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        size_t eq = stripped.find('=');
        if (eq == std::string_view::npos)
            PB_FATAL("config line " << lineno << " has no '=': " << line);
        std::string_view key = trim(stripped.substr(0, eq));
        std::string_view value = trim(stripped.substr(eq + 1));
        if (key.empty())
            PB_FATAL("config line " << lineno << " has empty key");
        // Files are written in key order: the end is the usual place.
        kv.entries_.insert_or_assign(kv.entries_.end(), std::string(key),
                                     std::string(value));
    }
    return kv;
}

void
KvFile::save(const std::string &path) const
{
    saveText(path, toString());
}

void
KvFile::saveText(const std::string &path, std::string_view text)
{
    std::ofstream out(path);
    if (!out)
        PB_FATAL("cannot open '" << path << "' for writing");
    out << text;
    if (!out)
        PB_FATAL("write to '" << path << "' failed");
}

void
KvFile::saveAtomic(const std::string &path,
                   const std::string &crashPrefix) const
{
    saveTextAtomic(path, toString(), crashPrefix);
}

void
KvFile::saveTextAtomic(const std::string &path, std::string_view payload,
                       const std::string &crashPrefix)
{
    const std::string temp = path + ".tmp";

    crashpoint::fire(crashPrefix + ".pre_write");

    int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        PB_IO_FAIL("cannot open '" << temp
                                   << "' for writing: " << strerror(errno));

    crashpoint::WriteFault fault =
        crashpoint::fireWrite(crashPrefix + ".write");
    size_t toWrite = payload.size();
    if (fault.action != crashpoint::Action::None) {
        // Injected short write: keepBytes if given, else half — enough
        // to leave a recognisably torn file, never a complete one.
        size_t keep = fault.explicitBytes ? fault.keepBytes
                                          : payload.size() / 2;
        toWrite = std::min(keep, payload.size());
    }

    size_t written = 0;
    while (written < toWrite) {
        ssize_t n =
            ::write(fd, payload.data() + written, toWrite - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            PB_IO_FAIL("write to '" << temp
                                    << "' failed: " << strerror(err));
        }
        written += static_cast<size_t>(n);
    }

    if (fault.action == crashpoint::Action::Enospc) {
        ::close(fd);
        PB_IO_FAIL("write to '" << temp << "' failed: "
                                << strerror(ENOSPC) << " (injected)");
    }
    if (fault.action == crashpoint::Action::Eio) {
        ::close(fd);
        PB_IO_FAIL("write to '" << temp << "' failed: " << strerror(EIO)
                                << " (injected)");
    }

    // Fsync before rename: otherwise a crash shortly after could leave
    // the *renamed* file empty on some filesystems, defeating the
    // old-or-new guarantee the spool fsck relies on.
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        PB_IO_FAIL("fsync of '" << temp
                                << "' failed: " << strerror(err));
    }
    if (::close(fd) != 0)
        PB_IO_FAIL("close of '" << temp
                                << "' failed: " << strerror(errno));

    crashpoint::fire(crashPrefix + ".pre_rename");

    if (std::rename(temp.c_str(), path.c_str()) != 0)
        PB_IO_FAIL("rename '" << temp << "' -> '" << path
                              << "' failed: " << strerror(errno));

    crashpoint::fire(crashPrefix + ".post_rename");
}

// ---- KvWriter -------------------------------------------------------------

void
KvWriter::begin(std::string_view key)
{
    checkKey(key);
    entries_.push_back({buffer_.size(), buffer_.size() + key.size(), 0});
    buffer_ += key;
}

void
KvWriter::set(std::string_view key, std::string_view value)
{
    checkValue(key, value);
    begin(key);
    buffer_ += value;
    finish();
}

void
KvWriter::setInt(std::string_view key, int64_t value)
{
    begin(key);
    appendInt(buffer_, value);
    finish();
}

void
KvWriter::setDouble(std::string_view key, double value)
{
    begin(key);
    appendDouble(buffer_, value);
    finish();
}

void
KvWriter::setIntList(std::string_view key, std::span<const int64_t> values)
{
    begin(key);
    appendIntList(buffer_, values);
    finish();
}

void
KvWriter::setHex(std::string_view key, uint64_t value)
{
    begin(key);
    appendHex(buffer_, value);
    finish();
}

std::string_view
KvWriter::keyOf(const Entry &entry) const
{
    return {buffer_.data() + entry.key, entry.value - entry.key};
}

std::string_view
KvWriter::valueOf(const Entry &entry) const
{
    return {buffer_.data() + entry.value, entry.end - entry.value};
}

void
KvWriter::sortEntries()
{
    std::sort(entries_.begin(), entries_.end(),
              [this](const Entry &a, const Entry &b) {
                  return keyOf(a) < keyOf(b);
              });
    for (size_t i = 1; i < entries_.size(); ++i)
        PB_ASSERT(keyOf(entries_[i - 1]) != keyOf(entries_[i]),
                  "key '" << keyOf(entries_[i]) << "' written twice");
}

std::string
KvWriter::renderSorted() const
{
    std::string text;
    text.reserve(buffer_.size() + kLineOverhead * entries_.size());
    for (const Entry &entry : entries_)
        appendLine(text, keyOf(entry), valueOf(entry));
    return text;
}

std::string
KvWriter::render()
{
    sortEntries();
    return renderSorted();
}

std::string
KvWriter::seal(const std::string &kind, int64_t version)
{
    setInt(versionKey(kind), version);
    sortEntries();
    Fnv1a hash;
    for (const Entry &entry : entries_)
        mixEntry(hash, keyOf(entry), valueOf(entry));
    const std::string checksum = checksumKey(kind);
    setHex(checksum, hash.value());
    // Every entry but the checksum is in order: move it into place.
    auto last = std::prev(entries_.end());
    auto at = std::upper_bound(
        entries_.begin(), last, std::string_view(checksum),
        [this](std::string_view key, const Entry &entry) {
            return key < keyOf(entry);
        });
    PB_ASSERT(at == entries_.begin() || keyOf(*std::prev(at)) != checksum,
              "key '" << checksum << "' written twice");
    std::rotate(at, last, entries_.end());
    return renderSorted();
}

KvFile
KvFile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        PB_FATAL("cannot open '" << path << "' for reading");
    std::ostringstream oss;
    oss << in.rdbuf();
    return fromString(oss.str());
}

} // namespace petabricks
