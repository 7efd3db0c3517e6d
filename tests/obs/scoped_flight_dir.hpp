// A fresh temporary directory as NETCL_FLIGHT_DIR for one test's dumps:
// created on construction, removed with its contents on destruction, when
// the previous NETCL_FLIGHT_DIR comes back.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

namespace netcl::testutil {

class ScopedFlightDir {
 public:
  ScopedFlightDir() {
    if (const char* previous = std::getenv("NETCL_FLIGHT_DIR")) previous_ = previous;
    std::string pattern = (std::filesystem::temp_directory_path() / "netcl_flight_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
      return;
    }
    path_ = pattern;
    ::setenv("NETCL_FLIGHT_DIR", path_.c_str(), 1);
  }
  ~ScopedFlightDir() {
    if (previous_) {
      ::setenv("NETCL_FLIGHT_DIR", previous_->c_str(), 1);
    } else {
      ::unsetenv("NETCL_FLIGHT_DIR");
    }
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScopedFlightDir(const ScopedFlightDir&) = delete;
  ScopedFlightDir& operator=(const ScopedFlightDir&) = delete;

 private:
  std::optional<std::string> previous_;
  std::string path_;
};

}  // namespace netcl::testutil
