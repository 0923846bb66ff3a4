/**
 * @file
 * Flat key/value text files.
 *
 * The PetaBricks autotuner communicates with binaries via a *choice
 * configuration file* (Section 3, Figure 3). We keep the same plain-text
 * model: one `key = value` per line, '#' comments, stable ordering so
 * files diff cleanly across tuner generations.
 *
 * Persisted records are sealed: seal() adds `<kind>.version` and
 * `<kind>.checksum` (FNV-1a over the other entries in key order).
 *
 * KvFile is the map a reader queries. Records written on every request
 * (checkpoints, reply bodies) render through KvWriter instead, which
 * produces the same text without building the map.
 */

#ifndef PETABRICKS_SUPPORT_KVFILE_H
#define PETABRICKS_SUPPORT_KVFILE_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace petabricks {

/** Ordered string->string map with typed accessors and file round-trip. */
class KvFile
{
  public:
    /** Set (or overwrite) a key. */
    void set(std::string key, std::string value);
    void setInt(const std::string &key, int64_t value);
    void setDouble(const std::string &key, double value);
    void setIntList(const std::string &key,
                    const std::vector<int64_t> &values);
    /** As 16 lower-case hex digits (fingerprints, IEEE-754 bits). */
    void setHex(const std::string &key, uint64_t value);

    /** True if @p key is present. */
    bool has(const std::string &key) const;

    /** Value of @p key; fatal error if absent. */
    const std::string &get(const std::string &key) const;
    int64_t getInt(const std::string &key) const;
    double getDouble(const std::string &key) const;
    std::vector<int64_t> getIntList(const std::string &key) const;
    uint64_t getHex(const std::string &key) const;

    /** Value of @p key, or @p fallback if absent. */
    int64_t getIntOr(const std::string &key, int64_t fallback) const;

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    /**
     * The entries whose keys start with @p prefix, prefix stripped: one
     * ordered range of the map, however many other keys the file has.
     */
    KvFile section(const std::string &prefix) const;

    size_t size() const { return entries_.size(); }

    /** Set `<kind>.version`, then `<kind>.checksum`; call last. */
    KvFile &seal(const std::string &kind, int64_t version);
    /** Fatal error naming @p path unless seal(kind, version) wrote this
     * file and nothing has changed it since. */
    void verifySeal(const std::string &kind, int64_t version,
                    const std::string &path) const;

    /** Render to the on-disk text format. */
    std::string toString() const;

    /** Parse from the on-disk text format; fatal error on bad syntax. */
    static KvFile fromString(std::string_view text);

    /** Write to @p path; fatal error on I/O failure. */
    void save(const std::string &path) const;

    /** save() for already rendered @p text. */
    static void saveText(const std::string &path, std::string_view text);

    /**
     * Crash-safe write: render to `path + ".tmp"`, fsync, rename over
     * @p path. Readers either see the old complete file or the new
     * complete file, never a partial one. @p crashPrefix names the
     * crash-point family traversed during the sequence (see
     * support/crashpoint.h); pass the prefix registered for this
     * store, e.g. "spool.meta". Throws IoError (not FatalError) on
     * write/rename failure — injected or real — with the temp file
     * left behind and the destination untouched. For records written
     * once (specs, segments, champions); a checkpoint rewritten every
     * step goes to a SlotFile instead, which needs no temp file and no
     * rename.
     */
    void saveAtomic(const std::string &path,
                    const std::string &crashPrefix) const;

    /** saveAtomic() for already rendered @p text. */
    static void saveTextAtomic(const std::string &path, std::string_view text,
                               const std::string &crashPrefix);

    /** Read from @p path; fatal error on I/O failure or bad syntax. */
    static KvFile load(const std::string &path);

    bool operator==(const KvFile &other) const = default;

  private:
    std::map<std::string, std::string> entries_;
};

/**
 * A record rendered in one pass. Each entry appends its key and value
 * to one buffer; render() sorts the entries once and returns the text
 * KvFile::toString() gives for the same entries, and seal() the text
 * of KvFile::seal() then toString(), its checksum taken over the same
 * buffered bytes. Keys must be distinct (a repeat is a PanicError).
 */
class KvWriter
{
  public:
    void set(std::string_view key, std::string_view value);
    void setInt(std::string_view key, int64_t value);
    void setDouble(std::string_view key, double value);
    void setIntList(std::string_view key, std::span<const int64_t> values);
    void setHex(std::string_view key, uint64_t value);

    /** The entries in the on-disk text format. */
    std::string render();

    /** Add `<kind>.version` and `<kind>.checksum` as KvFile::seal()
     * does, then render(); call last. */
    std::string seal(const std::string &kind, int64_t version);

  private:
    /** One entry: its key at buffer_[key, value), its value at
     * buffer_[value, end). */
    struct Entry
    {
        size_t key = 0;
        size_t value = 0;
        size_t end = 0;
    };

    /** Start an entry: check and append @p key. */
    void begin(std::string_view key);
    /** Close the entry begin() started at the end of the buffer. */
    void finish() { entries_.back().end = buffer_.size(); }
    std::string_view keyOf(const Entry &entry) const;
    std::string_view valueOf(const Entry &entry) const;
    void sortEntries();
    std::string renderSorted() const;

    std::string buffer_;
    std::vector<Entry> entries_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_KVFILE_H
