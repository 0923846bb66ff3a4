/**
 * @file
 * Test directories that no other process shares: FreshDir for one
 * test's scope, freshPath() for one test process.
 */

#ifndef PETABRICKS_TESTS_FRESH_DIR_H
#define PETABRICKS_TESTS_FRESH_DIR_H

#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <system_error>

namespace petabricks {

/** An empty directory under ::testing::TempDir(), removed when the
 * object goes out of scope. mkdtemp names it, so concurrent copies of
 * one test binary never share one. */
class FreshDir
{
  public:
    explicit FreshDir(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "pb_" + name + "_XXXXXX")
    {
        if (mkdtemp(path_.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + path_);
    }

    ~FreshDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    FreshDir(const FreshDir &) = delete;
    FreshDir &operator=(const FreshDir &) = delete;

    const std::string &path() const { return path_; }

    /** The path of @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/**
 * The path @p name inside this test process's own FreshDir, made on
 * first use and removed at exit, so concurrent copies of one binary
 * never share a file. Whatever an earlier call left at that path is
 * removed first.
 */
inline std::string
freshPath(const std::string &name)
{
    static const FreshDir root("test");
    const std::string path = root.file(name);
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
    return path;
}

} // namespace petabricks

#endif // PETABRICKS_TESTS_FRESH_DIR_H
