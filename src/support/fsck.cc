#include "support/fsck.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "support/logging.h"

namespace fs = std::filesystem;

namespace petabricks {
namespace fsck {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** True for `seg-<digits>.kv`, the names SegmentStore writes. */
bool
isSegmentName(const std::string &name)
{
    const std::string prefix = "seg-";
    const std::string suffix = ".kv";
    if (name.size() <= prefix.size() + suffix.size() ||
        !startsWith(name, prefix) || !endsWith(name, suffix))
        return false;
    return std::all_of(name.begin() + prefix.size(),
                       name.end() - suffix.size(),
                       [](char c) { return c >= '0' && c <= '9'; });
}

} // namespace

FileKind
classify(const std::string &path)
{
    std::string name = fs::path(path).filename().string();
    // `.quarantine` may carry a collision suffix (`.quarantine.1`).
    if (name.find(".quarantine") != std::string::npos)
        return FileKind::Quarantine;
    if (endsWith(name, ".tmp"))
        return FileKind::Temp;
    if (endsWith(name, ".meta"))
        return FileKind::SpoolMeta;
    // Either slot of a checkpoint (SlotFile::slotPath).
    if (endsWith(name, ".ckpt") || endsWith(name, ".ckpt.1"))
        return FileKind::SpoolCheckpoint;
    if (isSegmentName(name))
        return FileKind::CacheSegment;
    if (startsWith(name, "champ-") && endsWith(name, ".kv"))
        return FileKind::Champion;
    return FileKind::Other;
}

const char *
kindName(FileKind kind)
{
    switch (kind) {
    case FileKind::SpoolMeta:
        return "session meta";
    case FileKind::SpoolCheckpoint:
        return "session checkpoint";
    case FileKind::CacheSegment:
        return "cache segment";
    case FileKind::Champion:
        return "portfolio champion";
    case FileKind::Temp:
        return "temp file";
    case FileKind::Quarantine:
        return "quarantined";
    case FileKind::Other:
        break;
    }
    return "other";
}

std::string
quarantine(const std::string &path)
{
    std::string target = path + ".quarantine";
    std::error_code ec;
    for (int i = 1; fs::exists(target, ec); ++i)
        target = path + ".quarantine." + std::to_string(i);
    fs::rename(path, target, ec);
    if (ec) {
        PB_WARN("fsck: failed to quarantine '" << path
                                               << "': " << ec.message());
        return "";
    }
    return target;
}

std::vector<ScanEntry>
scan(const std::string &dir)
{
    std::vector<ScanEntry> out;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        ScanEntry se;
        se.path = entry.path().string();
        se.kind = classify(se.path);
        std::error_code sizeEc;
        se.bytes = entry.file_size(sizeEc);
        out.push_back(std::move(se));
    }
    std::sort(out.begin(), out.end(),
              [](const ScanEntry &a, const ScanEntry &b) {
                  return a.path < b.path;
              });
    return out;
}

std::vector<std::string>
list(const std::string &dir, FileKind kind)
{
    std::vector<std::string> paths;
    for (const ScanEntry &entry : scan(dir))
        if (entry.kind == kind)
            paths.push_back(entry.path);
    return paths;
}

int64_t
loadEach(const std::string &dir, FileKind kind,
         const std::function<void(const std::string &)> &load)
{
    int64_t quarantined = 0;
    for (const std::string &path : list(dir, kind)) {
        try {
            load(path);
        } catch (const std::exception &e) {
            quarantine(path);
            ++quarantined;
            PB_WARN("fsck: quarantined " << kindName(kind) << " '" << path
                                         << "' (" << e.what() << ")");
        }
    }
    return quarantined;
}

size_t
purge(const std::string &dir, bool alsoTemps)
{
    size_t removed = 0;
    for (const auto &entry : scan(dir)) {
        if (entry.kind != FileKind::Quarantine &&
            !(alsoTemps && entry.kind == FileKind::Temp))
            continue;
        std::error_code ec;
        if (fs::remove(entry.path, ec) && !ec)
            ++removed;
        else if (ec)
            PB_WARN("fsck: failed to remove '" << entry.path
                                               << "': " << ec.message());
    }
    return removed;
}

} // namespace fsck
} // namespace petabricks
