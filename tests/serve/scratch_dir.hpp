/**
 * @file
 * A scratch directory for one test, removed with its contents when the
 * guard goes out of scope, so the spool, resume and overload cases
 * leave nothing behind in TempDir.
 */

#ifndef EMPROF_TESTS_SERVE_SCRATCH_DIR_HPP
#define EMPROF_TESTS_SERVE_SCRATCH_DIR_HPP

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include <gtest/gtest.h>

namespace emprof::test {

class ScratchDir
{
  public:
    /** Creates TempDir()/emprof_<tag>_<pid>_<n>: ctest runs the cases
     *  of one binary as parallel processes over one TempDir. */
    explicit ScratchDir(const std::string &tag)
    {
        static std::atomic<int> counter{0};
        path_ = ::testing::TempDir() + "emprof_" + tag + "_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1));
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace emprof::test

#endif // EMPROF_TESTS_SERVE_SCRATCH_DIR_HPP
