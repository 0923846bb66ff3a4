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
 */

#ifndef PETABRICKS_SUPPORT_KVFILE_H
#define PETABRICKS_SUPPORT_KVFILE_H

#include <cstdint>
#include <map>
#include <string>
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
    static KvFile fromString(const std::string &text);

    /** Write to @p path; fatal error on I/O failure. */
    void save(const std::string &path) const;

    /**
     * Crash-safe write: render to `path + ".tmp"`, fsync, rename over
     * @p path. Readers either see the old complete file or the new
     * complete file, never a partial one. @p crashPrefix names the
     * crash-point family traversed during the sequence (see
     * support/crashpoint.h); pass the prefix registered for this
     * store, e.g. "spool.ckpt". Throws IoError (not FatalError) on
     * write/rename failure — injected or real — with the temp file
     * left behind and the destination untouched.
     */
    void saveAtomic(const std::string &path,
                    const std::string &crashPrefix) const;

    /** Read from @p path; fatal error on I/O failure or bad syntax. */
    static KvFile load(const std::string &path);

    bool operator==(const KvFile &other) const = default;

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_KVFILE_H
