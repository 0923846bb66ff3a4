#include "support/slot_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/crashpoint.h"
#include "support/error.h"

namespace petabricks {

std::string
SlotFile::slotPath(const std::string &path, int slot)
{
    return slot == 0 ? path : path + ".1";
}

SlotFile::SlotFile(const std::string &path, const std::string &crashPrefix)
    : paths_{slotPath(path, 0), slotPath(path, 1)},
      preWrite_(crashPrefix + ".pre_write"),
      write_(crashPrefix + ".write"), preSync_(crashPrefix + ".pre_sync"),
      postSync_(crashPrefix + ".post_sync")
{
}

SlotFile::~SlotFile()
{
    close(0);
    close(1);
}

int
SlotFile::open(int slot)
{
    if (fds_[slot] < 0) {
        const std::string &path = paths_[slot];
        fds_[slot] =
            ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
        if (fds_[slot] < 0)
            PB_IO_FAIL("cannot open '" << path
                                       << "' for writing: " << strerror(errno));
    }
    return fds_[slot];
}

void
SlotFile::close(int slot)
{
    if (fds_[slot] >= 0)
        ::close(fds_[slot]);
    fds_[slot] = -1;
    sizes_[slot] = SIZE_MAX;
}

void
SlotFile::write(std::string_view text)
{
    crashpoint::fire(preWrite_);

    const int slot = next_;
    const std::string &path = paths_[slot];
    const int fd = open(slot);
    // A failed write leaves the slot's bytes unknown; the next write
    // reopens it and rewrites it whole.
    auto fail = [&](const char *what, int err, const char *injected) {
        close(slot);
        PB_IO_FAIL(what << " '" << path << "' failed: " << strerror(err)
                        << injected);
    };

    crashpoint::WriteFault fault = crashpoint::fireWrite(write_);
    size_t toWrite = text.size();
    if (fault.action != crashpoint::Action::None) {
        // Injected short write: keepBytes if given, else half — enough
        // to leave a recognisably torn slot, never a complete one.
        size_t keep =
            fault.explicitBytes ? fault.keepBytes : text.size() / 2;
        toWrite = std::min(keep, text.size());
    }
    size_t written = 0;
    while (written < toWrite) {
        ssize_t n = ::pwrite(fd, text.data() + written, toWrite - written,
                             static_cast<off_t>(written));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("write to", errno, "");
        }
        written += static_cast<size_t>(n);
    }
    if (fault.action == crashpoint::Action::Enospc)
        fail("write to", ENOSPC, " (injected)");
    if (fault.action == crashpoint::Action::Eio)
        fail("write to", EIO, " (injected)");

    // The file is at least as long as what was just written; a shorter
    // record must not keep the tail of a longer one.
    sizes_[slot] = std::max(sizes_[slot], written);
    if (text.size() < sizes_[slot]) {
        if (::ftruncate(fd, static_cast<off_t>(text.size())) != 0)
            fail("truncate of", errno, "");
        sizes_[slot] = text.size();
    }

    crashpoint::fire(preSync_);
    if (::fdatasync(fd) != 0)
        fail("fdatasync of", errno, "");
    crashpoint::fire(postSync_);

    next_ = 1 - slot;
}

} // namespace petabricks
