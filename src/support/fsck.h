/**
 * @file
 * Shared quarantine/fsck helpers for the three persistence stores.
 *
 * The spool, the cache segment store and the champion portfolio all
 * follow one discipline: on boot, a file that fails to parse or to
 * verify its KvFile::seal is renamed aside to `<name>.quarantine` —
 * never deleted, never fatal — and serving continues without it. This
 * header holds the file-name rules, the boot-time load loop, the
 * rename-aside and the directory scan the stores and `pbfsck` share.
 */

#ifndef PETABRICKS_SUPPORT_FSCK_H
#define PETABRICKS_SUPPORT_FSCK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace petabricks {
namespace fsck {

/** What kind of artifact a file in a store directory is. */
enum class FileKind {
    SpoolMeta,       ///< `<id>.meta` — session spec, sealed `spec` v1
    SpoolCheckpoint, ///< `<id>.ckpt`, `<id>.ckpt.1` — the two slots of a
                     ///< session checkpoint, `session` v2
    CacheSegment,    ///< `seg-<digits>.kv` — cache segment, `segment` v2
    Champion,        ///< `champ-*.kv` — portfolio champion, `portfolio` v1
    Temp,            ///< `*.tmp` — in-flight write, crash debris
    Quarantine,      ///< `*.quarantine` — fsck'd wreckage
    Other,           ///< anything else
};

/** Classify @p path (by filename pattern only; no I/O). For a
 *  quarantined file the kind is Quarantine; use classify() on the
 *  original name (strip the suffix) to learn what it was. */
FileKind classify(const std::string &path);

/** Human-readable name for @p kind ("cache segment", ...). */
const char *kindName(FileKind kind);

/**
 * Rename @p path aside to `<path>.quarantine`. If that name is taken
 * (a previous boot already quarantined one), appends `.1`, `.2`, ...
 * so nothing is ever overwritten. Returns the quarantine path, or ""
 * if the rename itself failed (logged as a warning — fsck must never
 * make boot worse).
 */
std::string quarantine(const std::string &path);

/** One entry from scanning a store directory. */
struct ScanEntry {
    std::string path;
    FileKind kind = FileKind::Other;
    uintmax_t bytes = 0;
};

/**
 * List regular files in @p dir (non-recursive), classified and sorted
 * by path. A missing directory yields an empty list.
 */
std::vector<ScanEntry> scan(const std::string &dir);

/** Paths of the files of @p kind in @p dir, in scan() order — oldest
 * first for the zero-padded segment names. */
std::vector<std::string> list(const std::string &dir, FileKind kind);

/**
 * The boot-time load of one store: call @p load on every file of
 * @p kind in @p dir, in list() order. A file @p load throws on is
 * quarantined and logged, and the load goes on with the next file.
 * Returns the number of files quarantined.
 */
int64_t loadEach(const std::string &dir, FileKind kind,
                 const std::function<void(const std::string &)> &load);

/**
 * Delete quarantine files (and, when @p alsoTemps, `*.tmp` debris)
 * under @p dir. Returns the number of files removed.
 */
size_t purge(const std::string &dir, bool alsoTemps);

} // namespace fsck
} // namespace petabricks

#endif // PETABRICKS_SUPPORT_FSCK_H
