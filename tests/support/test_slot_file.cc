/**
 * @file
 * SlotFile: writes alternate between the two slots, a shorter record
 * leaves no tail of a longer one, setNewest() steers the next write,
 * and a failed write leaves the newest copy untouched and is retried on
 * the same slot.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "support/crashpoint.h"
#include "support/error.h"
#include "support/slot_file.h"

#include "fresh_dir.h"

using namespace petabricks;

namespace {

namespace fs = std::filesystem;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class SlotFileTest : public ::testing::Test
{
  protected:
    void SetUp() override { crashpoint::clearSchedule(); }
    void TearDown() override { crashpoint::clearSchedule(); }

    FreshDir dir_{"slot_file"};
    const std::string path_ = dir_.file("record.ckpt");
    const std::string slot1_ = SlotFile::slotPath(path_, 1);
};

TEST_F(SlotFileTest, WritesAlternateAndAShorterRecordLeavesNoTail)
{
    EXPECT_EQ(SlotFile::slotPath(path_, 0), path_);
    EXPECT_EQ(slot1_, path_ + ".1");

    SlotFile slots(path_, "spool.ckpt");
    slots.write("a = first record\n");
    EXPECT_EQ(readFile(path_), "a = first record\n");
    EXPECT_FALSE(fs::exists(slot1_));
    slots.write("a = second\n");
    EXPECT_EQ(readFile(slot1_), "a = second\n");
    slots.write("a = 3\n");
    EXPECT_EQ(readFile(path_), "a = 3\n");
    EXPECT_EQ(readFile(slot1_), "a = second\n");

    // A reader found slot 0 newest: the next write keeps it.
    slots.setNewest(0);
    slots.write("a = fourth, longer than before\n");
    EXPECT_EQ(readFile(slot1_), "a = fourth, longer than before\n");
    EXPECT_EQ(readFile(path_), "a = 3\n");
}

TEST_F(SlotFileTest, FailedWriteKeepsTheNewestCopyAndRetriesItsSlot)
{
    SlotFile slots(path_, "spool.ckpt");
    slots.write("a = zero\n");
    slots.write("a = one\n");
    for (const char *fault : {"eio", "enospc"}) {
        crashpoint::setSchedule(std::string("spool.ckpt.write=") + fault);
        EXPECT_THROW(slots.write("a = lost to a failed write\n"), IoError)
            << fault;
        crashpoint::clearSchedule();
        EXPECT_EQ(readFile(slot1_), "a = one\n") << fault;
    }
    slots.write("a = retried\n");
    EXPECT_EQ(readFile(path_), "a = retried\n");
    EXPECT_EQ(readFile(slot1_), "a = one\n");
}

TEST_F(SlotFileTest, SlotThatCannotBeOpenedIsAnIoError)
{
    SlotFile slots(dir_.file("no_such_dir/record.ckpt"), "spool.ckpt");
    EXPECT_THROW(slots.write("a = 1\n"), IoError);
}

} // namespace
