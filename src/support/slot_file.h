/**
 * @file
 * A record rewritten in place, in one of two slots.
 *
 * Slot 0 is the path the caller names and slot 1 its sibling
 * `<path>.1`. Each write overwrites the slot that does not hold the
 * newest good copy: pwrite from offset 0, ftruncate when the text is
 * shorter than the file, fdatasync. A write torn by a crash can damage
 * only the slot being written, so the other still holds the previous
 * record: old-or-new, without a temp file or a rename. SlotFile knows
 * nothing of the record's format; the reader orders the slots by what
 * they hold and takes the newest that verifies, then tells the writer
 * which one that was (setNewest).
 *
 * Both slots stay open between writes: each is opened (O_CLOEXEC) on
 * its first write and closed by the destructor, so a live SlotFile
 * holds at most two file descriptors.
 */

#ifndef PETABRICKS_SUPPORT_SLOT_FILE_H
#define PETABRICKS_SUPPORT_SLOT_FILE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace petabricks {

/** See file comment. */
class SlotFile
{
  public:
    /** Slot @p slot (0 or 1) of the record kept at @p path. */
    static std::string slotPath(const std::string &path, int slot);

    /**
     * Slots of @p path; nothing is opened yet. @p crashPrefix names the
     * crash-point family write() traverses (`<prefix>.pre_write`,
     * `.write`, `.pre_sync`, `.post_sync`; see support/crashpoint.h).
     */
    SlotFile(const std::string &path, const std::string &crashPrefix);
    ~SlotFile();

    SlotFile(const SlotFile &) = delete;
    SlotFile &operator=(const SlotFile &) = delete;

    /** Slot 0's path, the one the constructor was given. */
    const std::string &path() const { return paths_[0]; }

    /** Slot @p slot holds the newest good copy: write() the other. */
    void setNewest(int slot) { next_ = 1 - slot; }

    /**
     * Overwrite the slot that does not hold the newest good copy with
     * @p text, and make it the newest. Throws IoError (EMFILE, ENOSPC,
     * EIO, injected or real) with the newest copy untouched; the next
     * write() then goes to the same slot again.
     */
    void write(std::string_view text);

  private:
    /** The open descriptor of @p slot, opening it on first use. */
    int open(int slot);
    void close(int slot);

    std::array<std::string, 2> paths_;
    std::array<int, 2> fds_{-1, -1};
    /** Each slot's file size; SIZE_MAX until a write learns it. */
    std::array<size_t, 2> sizes_{SIZE_MAX, SIZE_MAX};
    int next_ = 0;
    std::string preWrite_, write_, preSync_, postSync_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_SLOT_FILE_H
